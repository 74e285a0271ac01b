//! The fast QASM renderer and the one-call-per-gate `Circuit::unitary`
//! against the straightforward implementations they replaced, kept
//! here as references: outputs must match byte for byte and bit for
//! bit on random circuits over every gate kind.

use qcir::{qasm, Circuit, Gate, Patch, Qubit};
use qmath::statevec::apply_gate_slice;
use qmath::C64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;
use std::fmt::Write as _;

// ---- reference QASM emitter: one `String` per parameter and operand ----

fn reference_render(circuit: &Circuit, sep: &str) -> String {
    let mut s = String::new();
    s.push_str("OPENQASM 2.0;");
    s.push_str(sep);
    s.push_str("include \"qelib1.inc\";");
    s.push_str(sep);
    let _ = write!(s, "qreg q[{}];", circuit.num_qubits());
    for ins in circuit.iter() {
        s.push_str(sep);
        let params = ins.gate.params();
        if params.is_empty() {
            let _ = write!(s, "{}", ins.gate.name());
        } else {
            let rendered: Vec<String> = params.iter().map(|&p| reference_param(p)).collect();
            let _ = write!(s, "{}({})", ins.gate.name(), rendered.join(","));
        }
        let qs: Vec<String> = ins.qubits().iter().map(|q| format!("q[{q}]")).collect();
        let _ = write!(s, " {};", qs.join(","));
    }
    if sep == "\n" {
        s.push('\n');
    }
    s
}

fn reference_param(p: f64) -> String {
    let s = format!("{p:.17}");
    if s.parse::<f64>() == Ok(p) {
        return s;
    }
    for prec in 18..=40usize {
        let s = format!("{p:.prec$}");
        if s.parse::<f64>() == Ok(p) {
            return s;
        }
    }
    s
}

// ---- random circuits ----

/// An angle from a mix that stresses the renderer's precision rule:
/// ordinary, tiny (down to 1e-20, where the reference is still exact),
/// huge, signed zeros, and multiples of π.
fn angle(rng: &mut SmallRng) -> f64 {
    let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
    match rng.random_range(0..7u32) {
        0 | 1 => rng.random_range(-4.0..4.0),
        2 => sign * 10f64.powf(rng.random_range(-20.0..-1.0)),
        3 => sign * 10f64.powf(rng.random_range(1.0..300.0)),
        4 => sign * 0.0,
        5 => sign * PI * rng.random_range(1..8u32) as f64 / 4.0,
        _ => sign * rng.random_range(0.0..0.1),
    }
}

fn random_gate(rng: &mut SmallRng, max_arity: usize) -> Gate {
    loop {
        let g = match rng.random_range(0..26u32) {
            0 => Gate::X,
            1 => Gate::Y,
            2 => Gate::Z,
            3 => Gate::H,
            4 => Gate::S,
            5 => Gate::Sdg,
            6 => Gate::T,
            7 => Gate::Tdg,
            8 => Gate::Sx,
            9 => Gate::Sxdg,
            10 => Gate::Rx(angle(rng)),
            11 => Gate::Ry(angle(rng)),
            12 => Gate::Rz(angle(rng)),
            13 => Gate::P(angle(rng)),
            14 => Gate::U2(angle(rng), angle(rng)),
            15 => Gate::U3(angle(rng), angle(rng), angle(rng)),
            16 => Gate::Cx,
            17 => Gate::Cz,
            18 => Gate::Cp(angle(rng)),
            19 => Gate::Crz(angle(rng)),
            20 => Gate::Swap,
            21 => Gate::Rxx(angle(rng)),
            22 => Gate::Ryy(angle(rng)),
            23 => Gate::Rzz(angle(rng)),
            24 => Gate::Ccx,
            _ => Gate::Ccz,
        };
        if g.arity() <= max_arity {
            return g;
        }
    }
}

fn random_circuit(rng: &mut SmallRng, n: usize, len: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let g = random_gate(rng, n);
        let mut qs: Vec<Qubit> = Vec::new();
        while qs.len() < g.arity() {
            let q = rng.random_range(0..n as Qubit);
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
        c.push(g, &qs);
    }
    c
}

/// Random single-gate deletions: leaves dead slots in the arena, so
/// arena-walking emitters see a non-compact layout.
fn punch_holes(rng: &mut SmallRng, c: &mut Circuit, holes: usize) {
    for _ in 0..holes.min(c.len()) {
        let p = rng.random_range(0..c.len());
        c.apply_patch(&Patch::new(vec![p], Vec::new(), p));
    }
}

fn assert_same_bits(a: &Circuit, b: &Circuit) {
    assert_eq!(a.num_qubits(), b.num_qubits());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.gate.name(), y.gate.name());
        assert_eq!(x.qubits(), y.qubits());
        let (px, py) = (x.gate.params(), y.gate.params());
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&px), bits(&py), "{} vs {}", x.gate, y.gate);
    }
}

#[test]
fn qasm_render_matches_reference_and_round_trips_exactly() {
    let mut rng = SmallRng::seed_from_u64(0x9a5);
    let shapes = [(1, 0), (1, 5), (2, 17), (3, 60), (5, 200), (12, 1500)];
    for round in 0..40 {
        let (n, len) = shapes[round % shapes.len()];
        let mut c = random_circuit(&mut rng, n, len);
        if round % 2 == 1 {
            punch_holes(&mut rng, &mut c, len / 5);
        }
        for sep in ["\n", " "] {
            let fast = if sep == "\n" {
                qasm::to_qasm(&c)
            } else {
                qasm::to_qasm_line(&c)
            };
            assert_eq!(fast, reference_render(&c, sep), "round {round}");
            let back = qasm::from_qasm(&fast).expect("rendered QASM parses");
            assert_eq!(back, c);
            assert_same_bits(&back, &c);
        }
    }
}

#[test]
fn qasm_render_never_confuses_neighbouring_angles() {
    // Runs of angles one ulp apart, each repeated: the renderer's angle
    // memo must key on every bit, or a neighbour's text gets copied.
    let mut c = Circuit::new(1);
    for k in 0..3000u64 {
        let a = f64::from_bits(0.7f64.to_bits() + k % 700);
        c.push(Gate::Rz(a), &[0]);
        c.push(Gate::Rz(-a), &[0]);
    }
    let line = qasm::to_qasm_line(&c);
    assert_eq!(line, reference_render(&c, " "));
    assert_same_bits(&qasm::from_qasm(&line).unwrap(), &c);
}

#[test]
fn qasm_render_round_trips_extreme_angles() {
    // The reference gives up after 40 fractional digits, which print
    // only zeros below ~1e-23; the renderer must agree with it byte for
    // byte wherever the reference was exact, and be exact everywhere.
    let mut angles = vec![
        0.0,
        -0.0,
        1e-9,
        -3.2e-5,
        -0.015590366766198294,
        0.1,
        -PI,
        1e300,
        -f64::MAX,
        2.5e-24,
        -2.474632195053666e-121,
        1e-300,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
    ];
    let mut rng = SmallRng::seed_from_u64(0xe4);
    for _ in 0..200 {
        let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
        angles.push(sign * 10f64.powf(rng.random_range(-323.0..-1.0)));
        angles.push(sign * f64::from_bits(rng.random_range(1..1u64 << 52)));
    }
    let mut c = Circuit::new(2);
    for &a in &angles {
        c.push(Gate::Rz(a), &[0]);
        c.push(Gate::U3(a, -a, a), &[1]);
        c.push(Gate::Crz(a), &[1, 0]);
    }
    let line = qasm::to_qasm_line(&c);
    assert_same_bits(&qasm::from_qasm(&line).unwrap(), &c);
    assert!(line.contains("rz(-0.00000000000000000) q[0];"));
    let mut exact_before = 0;
    for &a in &angles {
        let old = reference_param(a);
        if old.parse::<f64>() == Ok(a) {
            exact_before += 1;
            let mut one = Circuit::new(1);
            one.push(Gate::Rz(a), &[0]);
            assert_eq!(
                qasm::to_qasm_line(&one),
                reference_render(&one, " "),
                "{a:e}"
            );
        }
    }
    assert!(exact_before >= 10 && exact_before < angles.len());
}

// ---- reference unitary: one full circuit simulation per basis column ----

/// Simulates `c` on one column: the gate loop `apply_to_state` ran
/// before it shared code with `unitary`, kept here so the reference
/// stays independent of the code under test.
fn simulate_column(c: &Circuit, col: &mut [C64]) {
    let mut buf = [C64::ZERO; 64];
    for ins in c.iter() {
        let qs: Vec<usize> = ins.qubits().iter().map(|&q| q as usize).collect();
        let dim = ins.gate.unitary_into(&mut buf);
        apply_gate_slice(col, c.num_qubits(), &qs, &buf[..dim * dim]);
    }
}

fn reference_unitary(c: &Circuit) -> Vec<C64> {
    let dim = 1usize << c.num_qubits();
    let mut m = vec![C64::ZERO; dim * dim];
    let mut col = vec![C64::ZERO; dim];
    for j in 0..dim {
        col.iter_mut().for_each(|z| *z = C64::ZERO);
        col[j] = C64::ONE;
        simulate_column(c, &mut col);
        for i in 0..dim {
            m[i * dim + j] = col[i];
        }
    }
    m
}

fn assert_unitary_bits(c: &Circuit) {
    // `apply_to_state` keeps its own column semantics…
    let dim = 1usize << c.num_qubits();
    let mut got = vec![C64::ZERO; dim];
    got[dim - 1] = C64::ONE;
    let mut expect = got.clone();
    c.apply_to_state(&mut got);
    simulate_column(c, &mut expect);
    let bits = |v: &[C64]| -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    assert_eq!(bits(&got), bits(&expect));
    // …and `unitary` reproduces every column at once.
    let fast = c.unitary();
    let reference = reference_unitary(c);
    assert_eq!(fast.as_slice().len(), reference.len());
    for (k, (a, b)) in fast.as_slice().iter().zip(&reference).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "entry {k}: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn unitary_is_bit_identical_to_column_simulation() {
    let mut rng = SmallRng::seed_from_u64(0x0417);
    for round in 0..300 {
        let n = 1 + round % 3;
        let len = rng.random_range(0..24);
        assert_unitary_bits(&random_circuit(&mut rng, n, len));
    }
    // Wider registers exercise the large-stride paths of the kernels.
    for n in 4..=6 {
        assert_unitary_bits(&random_circuit(&mut rng, n, 80));
    }
}

#[test]
fn unitary_is_bit_identical_on_a_long_window() {
    // The size of a resynthesis window grown across a whole large
    // circuit: ~6k gates on three qubits, with holes in the arena.
    let mut rng = SmallRng::seed_from_u64(0x6000);
    let mut c = random_circuit(&mut rng, 3, 6300);
    punch_holes(&mut rng, &mut c, 300);
    assert_unitary_bits(&c);
}
