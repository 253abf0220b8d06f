//! Trace exporters and validators: the bridge between the route recorder
//! ([`baton_net::TraceBuffer`]) and files a human can open.
//!
//! Two formats:
//!
//! * **JSONL** ([`render_trace_jsonl`]) — one span per line, every hop with
//!   its link kind and virtual send/arrive microseconds.  Greppable, and
//!   machine-checkable with [`check_trace_jsonl`] (CI validates a smoke
//!   trace on every push).
//! * **Chrome `trace_event`** ([`render_trace_chrome`]) — loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): one process
//!   per overlay, one track per sampled operation, the operation span on
//!   top and each hop as a nested slice whose name is its link kind.
//!
//! [`trace_summary_table`] renders the aggregate route anatomy — hop counts
//! by link kind per overlay — as an aligned text table, the quick look that
//! needs no external viewer.

use std::fmt::Write as _;

use baton_net::{LinkKind, TraceBuffer};

use crate::json::{self, Json};
use crate::report::json_string;

/// Renders captured trace buffers as JSONL: one span object per line,
/// prefixed with the overlay that produced it.
///
/// ```json
/// {"overlay":"BATON","op":17,"class":"baton.search","start_us":120,
///  "finish_us":980,"hops":[{"from":3,"to":9,"hop":1,"kind":"parent",
///  "message":"Search","sent_us":120,"arrive_us":160,"delivered":true,
///  "detour":false}]}
/// ```
pub fn render_trace_jsonl(traces: &[(String, TraceBuffer)]) -> String {
    let mut out = String::new();
    for (overlay, buffer) in traces {
        for span in buffer.spans() {
            let _ = write!(
                out,
                "{{\"overlay\":{},\"op\":{},\"class\":{},\"start_us\":{}",
                json_string(overlay),
                span.op,
                json_string(&span.class),
                span.started_at.as_micros()
            );
            if let Some(finished) = span.finished_at {
                let _ = write!(out, ",\"finish_us\":{}", finished.as_micros());
            }
            out.push_str(",\"hops\":[");
            for (i, hop) in span.hops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"from\":{},\"to\":{},\"hop\":{},\"kind\":{},\"message\":{},\
                     \"sent_us\":{},\"arrive_us\":{},\"delivered\":{},\"detour\":{}}}",
                    hop.from.raw(),
                    hop.to.raw(),
                    hop.hop,
                    json_string(hop.kind.name()),
                    json_string(hop.message),
                    hop.sent_at.as_micros(),
                    hop.arrive_at.as_micros(),
                    hop.delivered,
                    hop.detour
                );
            }
            out.push_str("]}\n");
        }
    }
    out
}

/// Renders captured trace buffers in Chrome `trace_event` format (the
/// JSON-object flavour with a `traceEvents` array), loadable in
/// `chrome://tracing` and Perfetto.
///
/// Layout: one *process* per overlay (named via `process_name` metadata),
/// one *thread* (track) per sampled operation.  Each operation contributes
/// a complete ("X") event spanning begin→finish, and each hop a nested
/// complete event named after its link kind, from its virtual send to its
/// virtual arrival.  All timestamps are virtual microseconds, which is the
/// unit the format expects.
pub fn render_trace_chrome(traces: &[(String, TraceBuffer)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&event);
    };
    for (pid, (overlay, buffer)) in traces.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_string(overlay)
            ),
        );
        for span in buffer.spans() {
            let start = span.started_at.as_micros();
            let finish = span
                .finished_at
                .map(|t| t.as_micros())
                .unwrap_or(start)
                .max(start);
            push(
                &mut out,
                format!(
                    "{{\"name\":{},\"cat\":\"op\",\"ph\":\"X\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{start},\"dur\":{},\"args\":{{\"op\":{},\
                     \"hops\":{},\"detours\":{}}}}}",
                    json_string(&span.class),
                    span.op,
                    finish - start,
                    span.op,
                    span.message_count(),
                    span.detour_count()
                ),
            );
            for hop in &span.hops {
                let sent = hop.sent_at.as_micros();
                let arrive = hop.arrive_at.as_micros().max(sent);
                push(
                    &mut out,
                    format!(
                        "{{\"name\":{},\"cat\":\"hop\",\"ph\":\"X\",\"pid\":{pid},\
                         \"tid\":{},\"ts\":{sent},\"dur\":{},\"args\":{{\"from\":{},\
                         \"to\":{},\"message\":{},\"delivered\":{},\"detour\":{}}}}}",
                        json_string(hop.kind.name()),
                        span.op,
                        arrive - sent,
                        hop.from.raw(),
                        hop.to.raw(),
                        json_string(hop.message),
                        hop.delivered,
                        hop.detour
                    ),
                );
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders the aggregate route anatomy of captured traces as an aligned
/// text table: per overlay, the recorder's coverage (operations seen vs
/// sampled vs evicted) and the hop count of every link kind it emitted.
pub fn trace_summary_table(traces: &[(String, TraceBuffer)]) -> String {
    let mut out = String::from("Route anatomy (sampled spans, hops by link kind)\n");
    for (overlay, buffer) in traces {
        let _ = writeln!(
            out,
            "  {}: {} ops seen, {} sampled, {} evicted, {} spans held",
            overlay,
            buffer.ops_seen(),
            buffer.sampled(),
            buffer.evicted(),
            buffer.len()
        );
        let counts = buffer.hop_counts_by_kind();
        let total: u64 = counts.iter().sum();
        for kind in LinkKind::ALL {
            let count = counts[kind.index()];
            if count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "    {:>13}: {:>8} hops ({:.1}%)",
                kind.name(),
                count,
                count as f64 / total.max(1) as f64 * 100.0
            );
        }
    }
    out
}

/// What [`check_trace_jsonl`] verified, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Span lines parsed.
    pub spans: u64,
    /// Hops across all spans.
    pub hops: u64,
}

/// Validates a JSONL trace dump produced by [`render_trace_jsonl`]:
/// every line must parse as a span object with the required fields, every
/// hop's `kind` must come from the closed [`LinkKind`] enum, every hop must
/// arrive at or after it was sent, and a span's hop *send* times must be
/// non-decreasing in record order (sends happen at the operation's frontier,
/// which only advances).  Returns counts of what was checked, or the first
/// violation with its line number.
pub fn check_trace_jsonl(text: &str) -> Result<TraceCheck, String> {
    let mut check = TraceCheck::default();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = index + 1;
        let at = |msg: &str| format!("line {lineno}: {msg}");
        let value = json::parse(line).map_err(|e| at(&e))?;
        let span = value
            .as_object()
            .ok_or_else(|| at("span is not an object"))?;
        for key in ["overlay", "op", "class", "start_us", "hops"] {
            if span.get(key).is_none() {
                return Err(at(&format!("span is missing \"{key}\"")));
            }
        }
        let start = span
            .get("start_us")
            .and_then(Json::as_number)
            .ok_or_else(|| at("\"start_us\" is not a number"))?;
        let finish = span.get("finish_us").and_then(Json::as_number);
        if let Some(finish) = finish {
            if finish < start {
                return Err(at("span finishes before it starts"));
            }
        }
        let hops = span
            .get("hops")
            .and_then(Json::as_array)
            .ok_or_else(|| at("\"hops\" is not an array"))?;
        let mut last_sent = f64::NEG_INFINITY;
        for (h, hop) in hops.iter().enumerate() {
            let hop = hop
                .as_object()
                .ok_or_else(|| at(&format!("hop {h} is not an object")))?;
            let kind = hop
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| at(&format!("hop {h} has no \"kind\"")))?;
            if LinkKind::parse(kind).is_none() {
                return Err(at(&format!("hop {h} has unknown link kind \"{kind}\"")));
            }
            let sent = hop
                .get("sent_us")
                .and_then(Json::as_number)
                .ok_or_else(|| at(&format!("hop {h}: \"sent_us\" is not a number")))?;
            let arrive = hop
                .get("arrive_us")
                .and_then(Json::as_number)
                .ok_or_else(|| at(&format!("hop {h}: \"arrive_us\" is not a number")))?;
            if arrive < sent {
                return Err(at(&format!("hop {h} arrives before it was sent")));
            }
            if sent < start {
                return Err(at(&format!("hop {h} was sent before the span began")));
            }
            if sent < last_sent {
                return Err(at(&format!(
                    "hop {h} send time moved backwards (frontier order violated)"
                )));
            }
            last_sent = sent;
            for key in ["from", "to", "delivered", "detour"] {
                if hop.get(key).is_none() {
                    return Err(at(&format!("hop {h} is missing \"{key}\"")));
                }
            }
            check.hops += 1;
        }
        check.spans += 1;
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_net::{SimTime, TraceConfig};

    fn captured_buffer() -> (String, TraceBuffer) {
        // Drive a tiny BATON system with tracing on: real spans, real
        // link kinds.
        use baton_net::Overlay;
        let mut system = baton_core::BatonSystem::build(Default::default(), 7, 30).unwrap();
        Overlay::set_latency_model(
            &mut system,
            baton_net::LatencyModel::log_normal(SimTime::from_millis(10), 0.5, 7),
        );
        Overlay::set_trace(&mut system, TraceConfig::default());
        for i in 0..40u64 {
            system.insert(1 + i * 20_999_983, i).unwrap();
            Overlay::search_exact(&mut system, 1 + i * 20_999_983).unwrap();
        }
        let buffer = Overlay::take_trace(&mut system).expect("tracing was enabled");
        assert!(!buffer.is_empty());
        ("BATON".to_owned(), buffer)
    }

    #[test]
    fn jsonl_dump_round_trips_through_the_validator() {
        let traces = vec![captured_buffer()];
        let dump = render_trace_jsonl(&traces);
        assert!(!dump.is_empty());
        let check = check_trace_jsonl(&dump).expect("dump validates");
        assert_eq!(
            check.spans,
            traces[0].1.len() as u64,
            "one line per held span"
        );
        assert!(check.hops > 0);
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        assert!(check_trace_jsonl("not json\n").is_err());
        // Well-formed JSON, wrong schema.
        assert!(check_trace_jsonl("{\"overlay\":\"X\"}\n").is_err());
        // Unknown link kind.
        let bad_kind = "{\"overlay\":\"X\",\"op\":1,\"class\":\"c\",\"start_us\":0,\
             \"hops\":[{\"from\":1,\"to\":2,\"hop\":1,\"kind\":\"warp\",\
             \"message\":\"m\",\"sent_us\":0,\"arrive_us\":1,\
             \"delivered\":true,\"detour\":false}]}";
        let err = check_trace_jsonl(bad_kind).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        // Arrival before send.
        let time_travel = bad_kind
            .replace("\"warp\"", "\"parent\"")
            .replace("\"arrive_us\":1", "\"arrive_us\":-1");
        let err = check_trace_jsonl(&time_travel).unwrap_err();
        assert!(err.contains("arrives before"), "{err}");
        // Send times must follow frontier order.
        let regressing = "{\"overlay\":\"X\",\"op\":1,\"class\":\"c\",\"start_us\":0,\
             \"hops\":[{\"from\":1,\"to\":2,\"hop\":1,\"kind\":\"parent\",\
             \"message\":\"m\",\"sent_us\":10,\"arrive_us\":20,\
             \"delivered\":true,\"detour\":false},\
             {\"from\":2,\"to\":3,\"hop\":2,\"kind\":\"child\",\
             \"message\":\"m\",\"sent_us\":5,\"arrive_us\":25,\
             \"delivered\":true,\"detour\":false}]}";
        let err = check_trace_jsonl(regressing).unwrap_err();
        assert!(err.contains("frontier"), "{err}");
    }

    #[test]
    fn chrome_dump_parses_and_names_processes() {
        let traces = vec![captured_buffer()];
        let dump = render_trace_chrome(&traces);
        let value = json::parse(&dump).expect("chrome dump is valid JSON");
        let root = value.as_object().expect("root object");
        let events = root
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(events.len() > 1);
        let meta = events[0].as_object().expect("metadata event");
        assert_eq!(meta.get("ph").and_then(Json::as_str), Some("M"));
        // Every non-metadata event is a complete event with ts and dur.
        for event in &events[1..] {
            let event = event.as_object().expect("event object");
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("ts").and_then(Json::as_number).is_some());
            assert!(event.get("dur").and_then(Json::as_number).unwrap_or(-1.0) >= 0.0);
        }
    }

    #[test]
    fn summary_table_breaks_hops_down_by_kind() {
        let traces = vec![captured_buffer()];
        let table = trace_summary_table(&traces);
        assert!(table.contains("BATON"));
        assert!(table.contains("sampled"));
        // A BATON routing walk crosses routing-table links.
        assert!(table.contains("routing_table"), "{table}");
    }
}
