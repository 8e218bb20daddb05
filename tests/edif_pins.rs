//! How `read_edif` binds instance pins that the EDIF writer never
//! produces but hand-written or hostile text can: one `(instance, port)`
//! pin joined by two nets, two instances sharing one name, and both
//! inside a composite cell instantiated twice. The import's re-emitted
//! netlists are frozen, so a reader that binds these pins differently
//! fails here.

use ipd::core::{sha256, to_hex};
use ipd::netlist::{edif_string, read_edif, verilog_string};

/// `inner`: `g.i0` is joined by net `na` and again by the later net
/// `nb`, and two instances are named `h`. `top` instantiates `inner`
/// twice and repeats the doubled pin on `u1.a`.
const EDIF: &str = r#"(edif pins
  (edifVersion 2 0 0)
  (edifLevel 0)
  (keywordMap (keywordLevel 0))
  (external virtex
    (edifLevel 0)
    (technology (numberDefinition))
    (cell and2
      (cellType GENERIC)
      (view netlist
        (viewType NETLIST)
        (interface
          (port i0 (direction INPUT))
          (port i1 (direction INPUT))
          (port o (direction OUTPUT))
        )
      )
    )
    (cell inv
      (cellType GENERIC)
      (view netlist
        (viewType NETLIST)
        (interface
          (port i (direction INPUT))
          (port o (direction OUTPUT))
        )
      )
    )
  )
  (library work
    (edifLevel 0)
    (technology (numberDefinition))
    (cell inner
      (cellType GENERIC)
      (view netlist
        (viewType NETLIST)
        (interface
          (port a (direction INPUT))
          (port b (direction INPUT))
          (port y (direction OUTPUT))
          (port z (direction OUTPUT))
        )
        (contents
          (instance g (viewRef netlist (cellRef and2 (libraryRef virtex))))
          (instance h (viewRef netlist (cellRef inv (libraryRef virtex))))
          (instance h (viewRef netlist (cellRef inv (libraryRef virtex))))
          (net na (joined (portRef a) (portRef i0 (instanceRef g)) (portRef i1 (instanceRef g))))
          (net nb (joined (portRef b) (portRef i0 (instanceRef g)) (portRef i (instanceRef h))))
          (net ny (joined (portRef o (instanceRef g)) (portRef y)))
          (net nz (joined (portRef o (instanceRef h)) (portRef z)))
        )
      )
    )
    (cell top
      (cellType GENERIC)
      (view netlist
        (viewType NETLIST)
        (interface
          (port a (direction INPUT))
          (port b (direction INPUT))
          (port y (direction OUTPUT))
          (port z (direction OUTPUT))
        )
        (contents
          (instance u0 (viewRef netlist (cellRef inner (libraryRef work))))
          (instance u1 (viewRef netlist (cellRef inner (libraryRef work))))
          (net a (joined (portRef a) (portRef a (instanceRef u0)) (portRef a (instanceRef u1))))
          (net b (joined (portRef b) (portRef b (instanceRef u0)) (portRef a (instanceRef u1))))
          (net m (joined (portRef y (instanceRef u0)) (portRef b (instanceRef u1))))
          (net y (joined (portRef y (instanceRef u1)) (portRef y)))
          (net z (joined (portRef z (instanceRef u0)) (portRef z)))
        )
      )
    )
  )
  (design pins (cellRef top (libraryRef work)))
)
"#;

/// The import's Verilog, frozen from the reader as it stood before pins
/// were resolved per instance. The later net wins a doubled pin (`g.i0`
/// is `b` in `u0`, and `u1.a` is `b`), and both instances named `h`
/// bind the pins that name joins.
const VERILOG: &str = "\
module pins (a, b, y, z);
  input a;
  input b;
  output y;
  output z;
  wire pins_a, pins_b, pins_y, pins_z, pins_n2, pins_u1_z_nc, pins_u1_z;
  assign pins_a = a;
  assign pins_b = b;
  assign y = pins_y;
  assign z = pins_z;
  and2 pins_u0_g (.i0(pins_b), .i1(pins_a), .o(pins_n2));
  inv pins_u0_h (.i(pins_b), .o(pins_z));
  inv pins_u0_h_2 (.i(pins_b), .o(pins_z));
  and2 pins_u1_g (.i0(pins_n2), .i1(pins_b), .o(pins_y));
  inv pins_u1_h (.i(pins_n2), .o(pins_u1_z));
  inv pins_u1_h_2 (.i(pins_n2), .o(pins_u1_z));
endmodule
";

/// SHA-256 of the import's re-emitted EDIF, frozen with [`VERILOG`].
const EDIF_DIGEST: &str = "3760d29ea5987c7f69f5693595591edab1c4a32f11e52c6535cd36c16b94fedf";

#[test]
fn doubled_pins_bind_as_frozen() {
    let circuit = read_edif(EDIF).expect("the hand-written EDIF imports");
    assert_eq!(verilog_string(&circuit).expect("Verilog"), VERILOG);
    let edif = edif_string(&circuit).expect("EDIF");
    assert_eq!(to_hex(&sha256(edif.as_bytes())), EDIF_DIGEST);
}
