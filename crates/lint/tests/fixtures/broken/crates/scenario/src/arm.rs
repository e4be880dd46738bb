//! Broken fixture for the one-axis-table rule: a consumer spelling axis
//! names itself instead of reading the table's rows.

pub fn identity_header() -> Vec<&'static str> {
    vec!["scenario", "point", "topology", "without_links"]
}
