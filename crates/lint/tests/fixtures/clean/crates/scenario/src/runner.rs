//! Clean fixture for the one-axis-table rule: a consumer reads the rows;
//! typed field access and mentions inside longer messages are not
//! per-axis arms.

use crate::axis::AXES;

pub fn identity_header() -> Vec<&'static str> {
    AXES.iter().map(|axis| axis.name).collect()
}

pub fn label(point: &Point) -> String {
    format!("f{} (sweep.without_links)", point.without_links)
}
