//! Time-series containers and text rendering for the figures.

use serde_json::{json, Value};
use spfail_world::Timeline;

/// One named series over measurement days.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(day, value)` points.
    pub points: Vec<(u16, f64)>,
}

impl Series {
    /// A new series.
    pub fn new(label: &str) -> Series {
        Series {
            label: label.to_string(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, day: u16, value: f64) {
        self.points.push((day, value));
    }

    /// The last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// JSON form: `[[day, value], ...]` with dates attached.
    pub fn to_json(&self) -> Value {
        json!({
            "label": self.label,
            "points": self.points.iter().map(|(d, v)| {
                json!({"day": d, "date": Timeline::date_label(*d), "value": v})
            }).collect::<Vec<_>>(),
        })
    }

    /// Render as a row of per-round values scaled into `0..=9` glyphs,
    /// good enough to show the *shape* in a terminal.
    pub fn sparkline(&self, lo: f64, hi: f64) -> String {
        const GLYPHS: [char; 10] = ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
        self.points
            .iter()
            .map(|(_, v)| {
                let t = if hi > lo {
                    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                GLYPHS[(t * 9.0).round() as usize]
            })
            .collect()
    }
}

/// Render several series that share a day axis.
pub fn render_chart(title: &str, series: &[Series], unit: &str) -> String {
    let mut out = format!("{title}\n");
    let days: Vec<u16> = series
        .first()
        .map(|s| s.points.iter().map(|(d, _)| *d).collect())
        .unwrap_or_default();
    if let (Some(first), Some(last)) = (days.first(), days.last()) {
        out.push_str(&format!(
            "  x: {} .. {} ({} rounds; '|' marks disclosure {})\n",
            Timeline::date_label(*first),
            Timeline::date_label(*last),
            days.len(),
            Timeline::date_label(Timeline::PUBLIC_DISCLOSURE),
        ));
    }
    let lo = 0.0;
    let hi = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(_, v)| *v))
        .fold(f64::EPSILON, f64::max);
    for s in series {
        let mut line = s.sparkline(lo, hi);
        // Mark the public disclosure with a separator where it falls.
        if let Some(pos) = days.iter().position(|&d| d >= Timeline::PUBLIC_DISCLOSURE) {
            if pos > 0 && pos < line.len() {
                line.insert(pos, '|');
            }
        }
        out.push_str(&format!(
            "  {:<28} [{}] last={:.1}{}\n",
            s.label,
            line,
            s.last().unwrap_or(0.0),
            unit
        ));
    }
    out.push_str(&format!("  (scale: 0 = 0{unit}, 9 = {hi:.1}{unit})\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales() {
        let mut s = Series::new("x");
        s.push(0, 0.0);
        s.push(2, 50.0);
        s.push(4, 100.0);
        assert_eq!(s.sparkline(0.0, 100.0), "059");
        assert_eq!(s.last(), Some(100.0));
    }

    #[test]
    fn chart_renders_all_series() {
        let mut a = Series::new("alexa");
        let mut b = Series::new("two-week");
        for day in [96u16, 100, 104] {
            a.push(day, 90.0);
            b.push(day, 80.0);
        }
        let chart = render_chart("Figure 7", &[a, b], "%");
        assert!(chart.contains("alexa"));
        assert!(chart.contains("two-week"));
        assert!(chart.contains("2022-01-15"));
    }

    #[test]
    fn json_includes_dates() {
        let mut s = Series::new("x");
        s.push(100, 1.0);
        let v = s.to_json();
        assert_eq!(v["points"][0]["date"], "2022-01-19");
    }
}
