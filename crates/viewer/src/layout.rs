//! The layout viewer: CLB-grid occupancy from relative placement.
//!
//! "A view of the layout for pre-placed FPGA macros provides the user
//! with feedback on the size, shape, and layout of a circuit module
//! under review" (paper §3.2) — without exposing the underlying
//! netlist.

use std::collections::HashMap;

use ipd_estimate::RoutingResult;
use ipd_hdl::{FlatNetlist, Rloc};

/// Renders the placed leaves of an elaborated design as an ASCII
/// occupancy grid. Each character is one slice site: `.` empty, digits
/// 1–9 for occupancy, `#` for ten or more.
///
/// # Examples
///
/// ```
/// use ipd_hdl::{Circuit, FlatNetlist};
/// use ipd_modgen::KcmMultiplier;
/// use ipd_viewer::layout_grid;
///
/// # fn main() -> Result<(), ipd_hdl::HdlError> {
/// let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
/// let flat = FlatNetlist::build(&Circuit::from_generator(&kcm)?)?;
/// let grid = layout_grid(&flat);
/// assert!(grid.contains('\n'));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn layout_grid(flat: &FlatNetlist) -> String {
    let mut occupancy: HashMap<Rloc, usize> = HashMap::new();
    for leaf in flat.leaves() {
        if let Some(loc) = leaf.loc {
            *occupancy.entry(loc).or_insert(0) += 1;
        }
    }
    if occupancy.is_empty() {
        return "(no placed leaves)\n".to_owned();
    }
    let r0 = occupancy.keys().map(|l| l.row).min().expect("non-empty");
    let r1 = occupancy.keys().map(|l| l.row).max().expect("non-empty");
    let c0 = occupancy.keys().map(|l| l.col).min().expect("non-empty");
    let c1 = occupancy.keys().map(|l| l.col).max().expect("non-empty");
    let mut out = String::new();
    out.push_str(&format!(
        "layout: rows {r0}..{r1}, cols {c0}..{c1} ({} placed sites)\n",
        occupancy.len()
    ));
    for row in r0..=r1 {
        out.push_str(&format!("{row:>4} |"));
        for col in c0..=c1 {
            let ch = match occupancy.get(&Rloc::new(row, col)) {
                None => '.',
                Some(&n) if n < 10 => char::from_digit(n as u32, 10).expect("digit"),
                Some(_) => '#',
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Channel occupancy as one character: `.` unused, digits 1–9 for the
/// wire count, `#` for ten or more.
fn occ_char(occ: Option<u16>) -> char {
    match occ {
        None | Some(0) => '.',
        Some(n) if n < 10 => char::from_digit(u32::from(n), 10).expect("digit"),
        Some(_) => '#',
    }
}

/// Renders a routing result as an ASCII channel-occupancy overlay:
/// `+` marks CLB coordinates, the character between two adjacent `+`
/// marks how many wires the channel segment between them carries.
/// The view is clipped to the region wires actually use (plus one CLB
/// of margin) so large devices stay readable.
#[must_use]
pub fn route_grid(routing: &RoutingResult) -> String {
    let (g_r0, g_c0, g_rows, g_cols) = routing.grid_bounds();
    if routing.stats.nets == 0 || g_rows == 0 || g_cols == 0 {
        return "(no routed nets)\n".to_owned();
    }
    // Bounding box of everything the route touches.
    let mut bounds: Option<(i32, i32, i32, i32)> = None;
    let mut touch = |loc: Rloc| {
        bounds = Some(match bounds {
            None => (loc.row, loc.col, loc.row, loc.col),
            Some((r0, c0, r1, c1)) => (
                r0.min(loc.row),
                c0.min(loc.col),
                r1.max(loc.row),
                c1.max(loc.col),
            ),
        });
    };
    for net in &routing.nets {
        touch(net.source);
        for sink in &net.sinks {
            touch(sink.loc);
        }
        for &(a, b) in &net.segments {
            touch(a);
            touch(b);
        }
    }
    let (r0, c0, r1, c1) = bounds.expect("routed nets have sources");
    let r_lo = (r0 - 1).max(g_r0);
    let c_lo = (c0 - 1).max(g_c0);
    let r_hi = (r1 + 1).min(g_r0 + g_rows as i32 - 1);
    let c_hi = (c1 + 1).min(g_c0 + g_cols as i32 - 1);
    let mut out = format!("{}\n", routing.stats);
    for row in r_lo..=r_hi {
        let mut line = format!("{row:>4} ");
        for col in c_lo..=c_hi {
            line.push('+');
            if col < c_hi {
                line.push(occ_char(
                    routing.occupancy_between(Rloc::new(row, col), Rloc::new(row, col + 1)),
                ));
            }
        }
        out.push_str(&line);
        out.push('\n');
        if row < r_hi {
            let mut line = String::from("     ");
            for col in c_lo..=c_hi {
                line.push(occ_char(
                    routing.occupancy_between(Rloc::new(row, col), Rloc::new(row + 1, col)),
                ));
                if col < c_hi {
                    line.push(' ');
                }
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Renders a routing result as a per-net listing: every net with its
/// source CLB, fanout and per-sink routed wire length and
/// backannotated delay.
#[must_use]
pub fn route_dump(routing: &RoutingResult) -> String {
    let mut out = format!("{}\n", routing.stats);
    for net in &routing.nets {
        out.push_str(&format!(
            "net {} @ {} (fanout {}, {} segment(s)):\n",
            net.name,
            net.source,
            net.fanout,
            net.segments.len()
        ));
        for sink in &net.sinks {
            out.push_str(&format!(
                "  -> {}  wirelength {}  delay {:.3} ns\n",
                sink.loc, sink.wirelength, sink.delay_ns
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{Circuit, PortSpec};
    use ipd_techlib::LogicCtx;

    fn placed_pair() -> Circuit {
        let mut c = Circuit::new("t");
        let mut ctx = c.root_ctx();
        let i = ctx.add_port(PortSpec::input("i", 1)).unwrap();
        let t = ctx.wire("t", 1);
        let a = ctx.inv(i, t).unwrap();
        ctx.set_rloc(a, Rloc::new(0, 0));
        let u = ctx.wire("u", 1);
        let b = ctx.inv(t, u).unwrap();
        ctx.set_rloc(b, Rloc::new(2, 3));
        c
    }

    #[test]
    fn grid_renders_occupancy() {
        let grid = layout_grid(&FlatNetlist::build(&placed_pair()).unwrap());
        assert!(grid.contains("rows 0..2"));
        // Two placed sites in the grid body (after the row labels).
        let body_ones: usize = grid
            .lines()
            .filter_map(|l| l.split_once('|'))
            .map(|(_, body)| body.matches('1').count())
            .sum();
        assert_eq!(body_ones, 2);
        assert!(grid.contains('.'));
    }

    #[test]
    fn empty_placement_message() {
        let mut c = Circuit::new("t");
        let mut ctx = c.root_ctx();
        let i = ctx.add_port(PortSpec::input("i", 1)).unwrap();
        let t = ctx.wire("t", 1);
        ctx.inv(i, t).unwrap();
        let flat = FlatNetlist::build(&c).unwrap();
        assert!(layout_grid(&flat).contains("no placed leaves"));
    }

    #[test]
    fn route_views_render_wires_and_delays() {
        use ipd_estimate::{route, RouterConfig};
        use ipd_techlib::{DelayModel, FlatIndex};
        let index = FlatIndex::new(FlatNetlist::build(&placed_pair()).unwrap());
        let routing = route(&index, &DelayModel::virtex(), &RouterConfig::default()).unwrap();
        assert!(routing.stats.converged);

        let grid = route_grid(&routing);
        assert!(grid.contains("converged"), "{grid}");
        assert!(grid.contains('+'), "{grid}");
        // The single two-pin net occupies at least one channel: some
        // segment renders as '1'.
        assert!(grid.contains('1'), "{grid}");

        let dump = route_dump(&routing);
        assert!(dump.contains("net "), "{dump}");
        assert!(dump.contains("wirelength"), "{dump}");
        assert!(dump.contains("ns"), "{dump}");
    }

    #[test]
    fn empty_route_renders_placeholder() {
        let mut c = Circuit::new("t");
        {
            let mut ctx = c.root_ctx();
            let i = ctx.add_port(PortSpec::input("i", 1)).unwrap();
            let t = ctx.wire("t", 1);
            ctx.inv(i, t).unwrap();
        }
        let index = ipd_techlib::FlatIndex::new(FlatNetlist::build(&c).unwrap());
        let routing = ipd_estimate::route(
            &index,
            &ipd_techlib::DelayModel::virtex(),
            &ipd_estimate::RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(route_grid(&routing), "(no routed nets)\n");
    }
}
