//! Aligned text-table exposition for humans reading CI logs.

use crate::registry::MetricsSnapshot;

/// Renders rows as two right-padded / right-aligned columns under a
/// header, e.g. for counter listings.
pub fn two_columns(header: &str, rows: &[(String, String)]) -> String {
    let left = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let right = rows.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    let mut out = format!("{header}\n");
    for (l, r) in rows {
        out.push_str(&format!("  {l:<left$}  {r:>right$}\n"));
    }
    out
}

/// Renders a full metrics snapshot as aligned sections (counters,
/// gauges, histograms), omitting empty sections.
pub fn render_snapshot(snap: &MetricsSnapshot) -> String {
    let mut out = format!("metrics @ {}\n", crate::fmt_nanos(snap.at_ns));
    if !snap.counters.is_empty() {
        let rows: Vec<(String, String)> = snap
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        out.push_str(&two_columns("counters:", &rows));
    }
    if !snap.gauges.is_empty() {
        let rows: Vec<(String, String)> = snap
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), format!("{} (high {})", g.value, g.high_water)))
            .collect();
        out.push_str(&two_columns("gauges:", &rows));
    }
    if !snap.histograms.is_empty() {
        let rows: Vec<(String, String)> = snap
            .histograms
            .iter()
            .map(|(k, h)| {
                let (n, min, mean, max) = (h.count(), h.min(), h.mean(), h.max());
                (k.clone(), format!("n={n} min={min} mean={mean} max={max}"))
            })
            .collect();
        out.push_str(&two_columns("histograms:", &rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn table_is_aligned() {
        let r = Registry::new();
        r.counter("short").add(1);
        r.counter("a.much.longer.name").add(123_456);
        r.gauge("g").set(9);
        r.histogram("h").record(64);
        let table = r.snapshot(5_000).to_table();
        assert!(table.contains("metrics @ 5µs"), "{table}");
        let lines: Vec<&str> = table.lines().collect();
        let short = lines.iter().find(|l| l.contains("short")).unwrap();
        let long = lines.iter().find(|l| l.contains("longer")).unwrap();
        assert_eq!(
            short.trim_end().len(),
            long.trim_end().len(),
            "values right-aligned:\n{table}"
        );
        assert!(table.contains("9 (high 9)"), "{table}");
        assert!(table.contains("n=1 min=64 mean=64 max=64"), "{table}");
    }
}
