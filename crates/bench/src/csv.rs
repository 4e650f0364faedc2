//! Minimal CSV export for the experiment binaries.
//!
//! Each figure/table regenerator writes its rows to
//! `target/experiments/<name>.csv` so the series can be re-plotted with
//! any external tool; values are plain numbers, `NaN` is written as an
//! empty cell.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The default export directory (`target/experiments`).
pub(crate) fn default_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Formats one CSV cell: floats with full precision, NaN as empty.
pub fn cell(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else {
        // lint:allow(float-format): shortest-round-trip IS the CSV cell contract — pinning a precision would truncate data
        format!("{v}")
    }
}

/// Writes `header` + `rows` to `path`, creating parent directories.
///
/// # Errors
///
/// Returns any I/O error from directory creation or writing, and
/// `InvalidInput` when a row's width differs from the header's (a malformed
/// table must not be half-written to disk).
pub(crate) fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    for (i, row) in rows.iter().enumerate() {
        if row.len() != header.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "CSV row width mismatch at row {i}: {} cells vs {} header columns",
                    row.len(),
                    header.len()
                ),
            ));
        }
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut file = fs::File::create(path)?;
    writeln!(file, "{}", header.join(","))?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(())
}

/// Writes rows and prints where they went (best-effort: export failures
/// warn on stderr rather than aborting an experiment that already ran).
pub(crate) fn export(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = default_dir().join(format!("{name}.csv"));
    match write_csv(&path, header, rows) {
        Ok(()) => println!("\n(series written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let dir = std::env::temp_dir().join("drqos_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = std::env::temp_dir().join("drqos_csv_mkdir/nested/deep");
        std::fs::remove_dir_all(std::env::temp_dir().join("drqos_csv_mkdir")).ok();
        let path = dir.join("t.csv");
        write_csv(&path, &["x"], &[vec!["1".into()]]).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(std::env::temp_dir().join("drqos_csv_mkdir")).ok();
    }

    #[test]
    fn cell_formats_nan_as_empty() {
        assert_eq!(cell(f64::NAN), "");
        assert_eq!(cell(1.5), "1.5");
    }

    #[test]
    fn row_width_mismatch_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("drqos_csv_test2");
        let path = dir.join("t.csv");
        let err = write_csv(&path, &["a", "b"], &[vec!["1".into()]])
            .expect_err("short row must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("row 0"),
            "error names the row: {err}"
        );
        assert!(!path.exists(), "nothing may be written on invalid input");
        std::fs::remove_dir_all(&dir).ok();
    }
}
