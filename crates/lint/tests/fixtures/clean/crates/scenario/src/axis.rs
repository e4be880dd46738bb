//! Clean fixture for the one-axis-table rule: the table is the one place
//! that names axes.

pub struct Axis {
    pub name: &'static str,
}

pub static AXES: [Axis; 2] = [
    Axis {
        name: "without_links",
    },
    Axis {
        name: "prefer_cheap_links",
    },
];
