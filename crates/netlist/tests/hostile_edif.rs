//! Hostile EDIF. Text built to exhaust the reader's stack, by nesting
//! lists or by a hierarchy that never bottoms out, must come back as a
//! parse error instead of aborting the process: the reader serves
//! `ipd-lint`, `ipd-verify` and the customer's import, all of which
//! take netlists from outside.

use ipd_netlist::{read_edif, NetlistError};

/// A `work` library of single-port cells, `(name, instantiated cells)`,
/// with the design rooted at the first.
fn hierarchy(cells: &[(&str, &[&str])]) -> String {
    let mut text = String::from("(edif hostile (library work");
    for (name, children) in cells {
        text.push_str(&format!(
            " (cell {name} (view netlist (interface (port a (direction INPUT))) (contents"
        ));
        for (k, child) in children.iter().enumerate() {
            text.push_str(&format!(
                " (instance u{k} (viewRef netlist (cellRef {child} (libraryRef work))))"
            ));
        }
        text.push_str(" (net a (joined (portRef a)");
        for k in 0..children.len() {
            text.push_str(&format!(" (portRef a (instanceRef u{k}))"));
        }
        text.push_str(")))))");
    }
    text.push_str(&format!(
        ") (design hostile (cellRef {} (libraryRef work))))",
        cells[0].0
    ));
    text
}

fn parse_error(text: &str) -> String {
    match read_edif(text) {
        Err(NetlistError::ParseEdif { message, .. }) => message,
        Err(other) => panic!("expected a parse error, got {other}"),
        Ok(_) => panic!("hostile EDIF imported"),
    }
}

#[test]
fn million_nested_lists_are_a_parse_error() {
    let message = parse_error(&"(".repeat(1_000_000));
    assert!(message.contains("nested"), "{message}");
}

#[test]
fn self_instantiating_cell_is_a_parse_error() {
    let message = parse_error(&hierarchy(&[("top", &["top"])]));
    assert!(message.contains("instantiates itself"), "{message}");
}

#[test]
fn mutually_instantiating_cells_are_a_parse_error() {
    let message = parse_error(&hierarchy(&[
        ("top", &["mid"]),
        ("mid", &["leaf"]),
        ("leaf", &["mid"]),
    ]));
    assert!(message.contains("instantiates itself"), "{message}");
}

#[test]
fn hierarchy_depth_is_capped() {
    let chain = |depth: usize| {
        let names: Vec<String> = (0..depth).map(|k| format!("c{k}")).collect();
        let children: Vec<[&str; 1]> = names.iter().skip(1).map(|n| [n.as_str()]).collect();
        let cells: Vec<(&str, &[&str])> = names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let instantiated: &[&str] = children.get(k).map_or(&[], |c| c.as_slice());
                (name.as_str(), instantiated)
            })
            .collect();
        hierarchy(&cells)
    };
    let deep = read_edif(&chain(64)).expect("64 levels import");
    assert_eq!(deep.cell_count(), 64);
    let message = parse_error(&chain(65));
    assert!(message.contains("deeper than"), "{message}");
    let message = parse_error(&chain(20_000));
    assert!(message.contains("deeper than"), "{message}");
}

/// `levels` cells, each instantiating the next twice: 2^levels - 1
/// cells once expanded.
fn doubling(levels: usize) -> String {
    let names: Vec<String> = (0..levels).map(|k| format!("c{k}")).collect();
    let children: Vec<[&str; 2]> = names
        .iter()
        .skip(1)
        .map(|n| [n.as_str(), n.as_str()])
        .collect();
    let cells: Vec<(&str, &[&str])> = names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let instantiated: &[&str] = children.get(k).map_or(&[], |c| c.as_slice());
            (name.as_str(), instantiated)
        })
        .collect();
    hierarchy(&cells)
}

#[test]
fn hierarchy_breadth_is_capped() {
    let tree = read_edif(&doubling(10)).expect("10 levels import");
    assert_eq!(tree.cell_count(), 1023);
    // 2^40 cells from about 11 KB of text: refused before any is built.
    let text = doubling(40);
    assert!(text.len() < 16 * 1024, "{} bytes", text.len());
    let start = std::time::Instant::now();
    let message = parse_error(&text);
    assert!(message.contains("expands to more than"), "{message}");
    assert!(
        start.elapsed() < std::time::Duration::from_millis(500),
        "took {:?}",
        start.elapsed()
    );
}
