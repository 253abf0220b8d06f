//! Bulk-vs-join equivalence: an overlay built by its bulk constructor, or
//! loaded by the zero-message direct load, answers like the reference
//! model exactly as a join-built, routed-loaded one does — same exact and
//! range answers, same deletes, same invariants — on the bulk suite's key
//! set (seed `0xB01D`, 400 keys plus every 9th again).

use baton_tests::{answers_like_the_model, ordered_inputs};

#[test]
fn bulk_built_overlays_answer_queries_like_join_built_ones() {
    let inputs = ordered_inputs(0xB01D, 400, 9, 7);
    let bulk = answers_like_the_model(&inputs, &[(false, false), (true, false)]).bulk;
    assert_eq!(bulk.len(), 2, "bulk-built overlays: {bulk:?}");
}

#[test]
fn direct_load_matches_routed_load_through_the_overlay_interface() {
    let inputs = ordered_inputs(0xB01D, 400, 9, 7);
    let direct = answers_like_the_model(&inputs, &[(false, true), (true, true)]).direct;
    assert_eq!(direct.len(), 2, "direct-loading overlays: {direct:?}");
}
