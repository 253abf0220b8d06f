//! Experiment results: series of points, rendered as text tables or CSV.

use std::collections::BTreeMap;

/// One x-position of a figure with the value of every series at that x.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesPoint {
    /// The x value (network size, tree level, shift size, …).
    pub x: f64,
    /// Series name → measured value.
    pub values: BTreeMap<String, f64>,
}

impl SeriesPoint {
    /// Creates a point at `x` with no values yet.
    pub fn at(x: f64) -> Self {
        Self {
            x,
            values: BTreeMap::new(),
        }
    }

    /// Sets the value of one series at this point.
    pub fn set(mut self, series: &str, value: f64) -> Self {
        self.values.insert(series.to_owned(), value);
        self
    }
}

/// The reproduction of one figure of the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureResult {
    /// Figure identifier, e.g. `"8a"`.
    pub id: String,
    /// Human-readable title (matches the paper's caption).
    pub title: String,
    /// Label of the x-axis.
    pub x_label: String,
    /// Label of the y-axis.
    pub y_label: String,
    /// The measured points, in x order.
    pub points: Vec<SeriesPoint>,
}

impl FigureResult {
    /// Creates an empty result.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            x_label: x_label.to_owned(),
            y_label: y_label.to_owned(),
            points: Vec::new(),
        }
    }

    /// All series names appearing in any point, in alphabetical order.
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .points
            .iter()
            .flat_map(|p| p.values.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Renders the result as an aligned text table.
    pub fn to_table(&self) -> String {
        let series = self.series_names();
        let mut out = String::new();
        out.push_str(&format!("Figure {} — {}\n", self.id, self.title));
        out.push_str(&format!("  ({} vs {})\n", self.y_label, self.x_label));
        let mut header = format!("{:>12}", self.x_label);
        for s in &series {
            header.push_str(&format!(" | {s:>20}"));
        }
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for point in &self.points {
            let mut row = format!("{:>12.0}", point.x);
            for s in &series {
                match point.values.get(s) {
                    Some(v) => row.push_str(&format!(" | {v:>20.2}")),
                    None => row.push_str(&format!(" | {:>20}", "-")),
                }
            }
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    /// Renders the result as CSV (header row then one row per point).
    pub fn to_csv(&self) -> String {
        let series = self.series_names();
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &series {
            out.push(',');
            out.push_str(&s.replace(',', ";"));
        }
        out.push('\n');
        for point in &self.points {
            out.push_str(&format!("{}", point.x));
            for s in &series {
                out.push(',');
                if let Some(v) = point.values.get(s) {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Helper accumulating repeated measurements and producing their mean.
#[derive(Clone, Debug, Default)]
pub struct Averager {
    sum: f64,
    count: u64,
}

impl Averager {
    /// Creates an empty averager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one measurement.
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// Adds `count` measurements that sum to `sum`.
    pub fn add_total(&mut self, sum: f64, count: u64) {
        self.sum += sum;
        self.count += count;
    }

    /// The mean of all measurements (0.0 if none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of measurements.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averager_computes_means() {
        let mut avg = Averager::new();
        assert_eq!(avg.mean(), 0.0);
        avg.add(2.0);
        avg.add(4.0);
        assert_eq!(avg.mean(), 3.0);
        avg.add_total(12.0, 2);
        assert_eq!(avg.count(), 4);
        assert_eq!(avg.mean(), 4.5);
    }

    #[test]
    fn figure_result_table_and_csv_contain_all_series() {
        let mut fig = FigureResult::new("8x", "test figure", "N", "messages");
        fig.points
            .push(SeriesPoint::at(100.0).set("baton", 5.0).set("chord", 7.5));
        fig.points.push(SeriesPoint::at(200.0).set("baton", 6.0));
        let table = fig.to_table();
        assert!(table.contains("Figure 8x"));
        assert!(table.contains("baton"));
        assert!(table.contains("chord"));
        assert!(table.contains("7.50"));
        let csv = fig.to_csv();
        assert!(csv.starts_with("N,baton,chord"));
        assert!(csv.contains("200,6,"));
        assert_eq!(
            fig.series_names(),
            vec!["baton".to_owned(), "chord".to_owned()]
        );
    }
}
