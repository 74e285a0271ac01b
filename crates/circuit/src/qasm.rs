//! OpenQASM 2.0 subset reader and writer.
//!
//! Supports the fragment needed to interchange benchmark circuits:
//! `OPENQASM 2.0`, one `qreg`, and applications of the gates in
//! [`crate::gate::Gate`]. Parameter expressions may use `pi`, numeric
//! literals, unary minus, `+ - * /`, and parentheses.

use crate::circuit::{Circuit, Qubit};
use crate::gate::Gate;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error from parsing a QASM document.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for QasmError {}

fn err(line: usize, message: impl Into<String>) -> QasmError {
    QasmError {
        line,
        message: message.into(),
    }
}

/// Serializes a circuit as OpenQASM 2.0.
///
/// ```
/// use qcir::{Circuit, Gate, qasm};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// let text = qasm::to_qasm(&c);
/// let back = qasm::from_qasm(&text).unwrap();
/// assert_eq!(back.len(), 2);
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    render_qasm(circuit, "\n")
}

/// Serializes a circuit as *single-line* OpenQASM 2.0: the same
/// statements as [`to_qasm`], separated by spaces instead of newlines.
///
/// QASM statements are `;`-terminated, so newlines are purely
/// cosmetic; [`from_qasm`] parses both forms identically. The
/// single-line form is what a line-delimited streaming protocol needs —
/// a whole circuit snapshot travels as one frame field with no escaping
/// (see the `qserve` crate). The output is guaranteed to contain no
/// `\n` or `\r`.
///
/// ```
/// use qcir::{Circuit, Gate, qasm};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// let line = qasm::to_qasm_line(&c);
/// assert!(!line.contains('\n'));
/// assert_eq!(qasm::from_qasm(&line).unwrap(), c);
/// ```
pub fn to_qasm_line(circuit: &Circuit) -> String {
    let s = render_qasm(circuit, " ");
    debug_assert!(!s.contains('\n') && !s.contains('\r'));
    s
}

/// Shared emitter: one statement per `sep`-joined chunk. The statement
/// text itself is identical between the multi-line and single-line
/// forms, so `from_qasm(to_qasm_line(c))` and `from_qasm(to_qasm(c))`
/// produce the same circuit bit for bit.
///
/// Every statement is written straight into one pre-sized `String`,
/// walking the arena without materializing the compact instruction
/// list: no per-gate allocation, so a checkpoint render of a large
/// circuit costs one buffer. Angle formatting dominates what is left,
/// so repeated angles are copied from their earlier rendering
/// ([`ParamMemo`]).
fn render_qasm(circuit: &Circuit, sep: &str) -> String {
    // ~32 bytes covers a one-parameter gate on two operands.
    let mut s = String::with_capacity(64 + 32 * circuit.len());
    s.push_str("OPENQASM 2.0;");
    s.push_str(sep);
    s.push_str("include \"qelib1.inc\";");
    s.push_str(sep);
    let _ = write!(s, "qreg q[{}];", circuit.num_qubits());
    let mut memo = ParamMemo::default();
    for ins in circuit.iter_live() {
        s.push_str(sep);
        s.push_str(ins.gate.name());
        let params = ins.gate.params();
        for (k, &p) in params.iter().enumerate() {
            s.push(if k == 0 { '(' } else { ',' });
            memo.write(&mut s, p);
        }
        if !params.is_empty() {
            s.push(')');
        }
        for (k, &q) in ins.qubits().iter().enumerate() {
            s.push_str(if k == 0 { " q[" } else { ",q[" });
            push_index(&mut s, q);
            s.push(']');
        }
        s.push(';');
    }
    if sep == "\n" {
        s.push('\n');
    }
    s
}

/// Appends `v` in decimal (what `write!(s, "{v}")` prints, without the
/// formatting machinery).
fn push_index(s: &mut String, mut v: Qubit) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// A direct-mapped cache from an angle's bits to where its rendering
/// already sits in the output, so each distinct angle is formatted
/// about once per document. Real circuits repeat a handful of angles
/// (T-family phases after a rebase, shared variational parameters), and
/// the copy is byte-identical to a fresh [`write_param`] by
/// construction. Lives on the stack: the renderer stays allocation-free
/// beyond its output buffer.
struct ParamMemo {
    /// `(bits, start, end)`: the rendering of the angle with these bits
    /// is `s[start..end]`; `end == 0` marks an empty slot (the header
    /// precedes every angle, so no rendering ends at 0).
    slots: [(u64, u32, u32); 64],
}

impl Default for ParamMemo {
    fn default() -> Self {
        ParamMemo {
            slots: [(0, 0, 0); 64],
        }
    }
}

impl ParamMemo {
    fn write(&mut self, s: &mut String, p: f64) {
        let bits = p.to_bits();
        let slot = &mut self.slots[(bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize];
        let (key, start, end) = *slot;
        if end != 0 && key == bits {
            s.extend_from_within(start as usize..end as usize);
            return;
        }
        let start = s.len();
        write_param(s, p);
        // Offsets past u32 (a multi-GiB document) just stop memoizing.
        if let (Ok(start), Ok(end)) = (u32::try_from(start), u32::try_from(s.len())) {
            *slot = (bits, start, end);
        }
    }
}

/// Appends an angle to `s` so that [`from_qasm`] recovers the exact
/// `f64`.
///
/// 17 fractional digits are enough for any magnitude ≥ 0.1 (and match
/// the historical golden-fixture format byte for byte), but lose
/// significant digits for smaller magnitudes — `0.015590366766198294`
/// truncates one digit short. Escalate precision only when the fixed
/// width fails to parse back, so established output bytes never change.
/// Below ~1e-23 even 40 digits print only zeros; there the search jumps
/// past the leading fractional zeros, where 17 significant digits
/// always recover a finite value. A NaN keeps the fixed width.
fn write_param(s: &mut String, p: f64) {
    let start = s.len();
    let _ = write!(s, "{p:.17}");
    // From 0.1 up, 17 fractional digits are at least 17 significant
    // ones, which always parse back to the same double: skip the check.
    if p.abs() >= 0.1 || s[start..].parse::<f64>() == Ok(p) {
        return;
    }
    let zeros = if p.is_finite() {
        (-p.abs().log10()).floor().max(0.0) as usize
    } else {
        0
    };
    for prec in (18..=40usize).chain(zeros.max(41)..=zeros + 20) {
        s.truncate(start);
        let _ = write!(s, "{p:.prec$}");
        if s[start..].parse::<f64>() == Ok(p) {
            return;
        }
    }
    s.truncate(start);
    let _ = write!(s, "{p:.17}");
}

/// Parses an OpenQASM 2.0 document into a circuit.
///
/// # Errors
///
/// Returns [`QasmError`] on unsupported statements, unknown gates, malformed
/// expressions, or qubit indices out of range.
pub fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stmt = match raw.find("//") {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if stmt.is_empty() {
            continue;
        }
        for part in stmt.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part.starts_with("OPENQASM") || part.starts_with("include") {
                continue;
            }
            if let Some(rest) = part.strip_prefix("qreg") {
                let rest = rest.trim();
                let open = rest.find('[').ok_or_else(|| err(line, "malformed qreg"))?;
                let close = rest.find(']').ok_or_else(|| err(line, "malformed qreg"))?;
                let n: usize = rest[open + 1..close]
                    .trim()
                    .parse()
                    .map_err(|_| err(line, "bad qreg size"))?;
                if circuit.is_some() {
                    return Err(err(line, "multiple qreg declarations unsupported"));
                }
                circuit = Some(Circuit::new(n));
                continue;
            }
            if part.starts_with("creg")
                || part.starts_with("barrier")
                || part.starts_with("measure")
            {
                continue; // ignored: classical bookkeeping
            }
            let c = circuit
                .as_mut()
                .ok_or_else(|| err(line, "gate before qreg declaration"))?;
            parse_gate_application(part, line, c)?;
        }
    }
    circuit.ok_or_else(|| err(0, "no qreg declaration found"))
}

fn parse_gate_application(stmt: &str, line: usize, c: &mut Circuit) -> Result<(), QasmError> {
    // Split off "name(params)" from operand list.
    let (head, operands) = match stmt.find(|ch: char| ch.is_whitespace()) {
        Some(i) if !stmt[..i].contains('(') || stmt[..i].contains(')') => {
            (stmt[..i].trim(), stmt[i..].trim())
        }
        _ => {
            // Parameterized with possible space inside parens: find the
            // closing paren.
            match stmt.find(')') {
                Some(i) => (stmt[..=i].trim(), stmt[i + 1..].trim()),
                None => {
                    let i = stmt
                        .find(|ch: char| ch.is_whitespace())
                        .ok_or_else(|| err(line, "malformed gate application"))?;
                    (stmt[..i].trim(), stmt[i..].trim())
                }
            }
        }
    };
    let (name, params) = match head.find('(') {
        Some(i) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| err(line, "unclosed parameter list"))?;
            let plist = &head[i + 1..close];
            let mut vals = Vec::new();
            for e in plist.split(',') {
                vals.push(parse_expr(e).map_err(|m| err(line, m))?);
            }
            (&head[..i], vals)
        }
        None => (head, Vec::new()),
    };

    let mut qubits: Vec<Qubit> = Vec::new();
    for op in operands.split(',') {
        let op = op.trim();
        let open = op
            .find('[')
            .ok_or_else(|| err(line, format!("expected q[i] operand, got `{op}`")))?;
        let close = op
            .find(']')
            .ok_or_else(|| err(line, format!("expected q[i] operand, got `{op}`")))?;
        let idx: Qubit = op[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| err(line, "bad qubit index"))?;
        if idx as usize >= c.num_qubits() {
            return Err(err(line, format!("qubit {idx} out of range")));
        }
        qubits.push(idx);
    }

    let need = |n: usize| -> Result<(), QasmError> {
        if params.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("gate {name} expects {n} parameters, got {}", params.len()),
            ))
        }
    };
    let gate = match name {
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "h" => Gate::H,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "sx" => Gate::Sx,
        "sxdg" => Gate::Sxdg,
        "id" => return Ok(()), // explicit identity: drop
        "rx" => {
            need(1)?;
            Gate::Rx(params[0])
        }
        "ry" => {
            need(1)?;
            Gate::Ry(params[0])
        }
        "rz" => {
            need(1)?;
            Gate::Rz(params[0])
        }
        "p" | "u1" => {
            need(1)?;
            Gate::P(params[0])
        }
        "u2" => {
            need(2)?;
            Gate::U2(params[0], params[1])
        }
        "u3" | "u" => {
            need(3)?;
            Gate::U3(params[0], params[1], params[2])
        }
        "cx" | "CX" => Gate::Cx,
        "cz" => Gate::Cz,
        "cp" | "cu1" => {
            need(1)?;
            Gate::Cp(params[0])
        }
        "crz" => {
            need(1)?;
            Gate::Crz(params[0])
        }
        "swap" => Gate::Swap,
        "rxx" => {
            need(1)?;
            Gate::Rxx(params[0])
        }
        "ryy" => {
            need(1)?;
            Gate::Ryy(params[0])
        }
        "rzz" => {
            need(1)?;
            Gate::Rzz(params[0])
        }
        "ccx" => Gate::Ccx,
        "ccz" => Gate::Ccz,
        other => return Err(err(line, format!("unknown gate `{other}`"))),
    };
    if qubits.len() != gate.arity() {
        return Err(err(
            line,
            format!(
                "gate {name} expects {} operands, got {}",
                gate.arity(),
                qubits.len()
            ),
        ));
    }
    c.push(gate, &qubits);
    Ok(())
}

// ---- tiny expression parser: numbers, pi, + - * /, parens, unary minus ----

fn parse_expr(src: &str) -> Result<f64, String> {
    let tokens = tokenize(src)?;
    let mut pos = 0usize;
    let v = parse_sum(&tokens, &mut pos)?;
    if pos != tokens.len() {
        return Err(format!("trailing tokens in expression `{src}`"));
    }
    Ok(v)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

#[allow(clippy::if_same_then_else)] // branch conditions differ, actions coincide
fn tokenize(src: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            'p' | 'P' if src[i..].to_ascii_lowercase().starts_with("pi") => {
                toks.push(Tok::Num(std::f64::consts::PI));
                i += 2;
            }
            _ if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit() || d == '.' || d == 'e' || d == 'E' {
                        i += 1;
                    } else if (d == '+' || d == '-')
                        && i > start
                        && matches!(bytes[i - 1] as char, 'e' | 'E')
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let v: f64 = src[start..i]
                    .parse()
                    .map_err(|_| format!("bad number in `{src}`"))?;
                toks.push(Tok::Num(v));
            }
            _ => return Err(format!("unexpected character `{c}` in `{src}`")),
        }
    }
    Ok(toks)
}

fn parse_sum(toks: &[Tok], pos: &mut usize) -> Result<f64, String> {
    let mut acc = parse_product(toks, pos)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Plus => {
                *pos += 1;
                acc += parse_product(toks, pos)?;
            }
            Tok::Minus => {
                *pos += 1;
                acc -= parse_product(toks, pos)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_product(toks: &[Tok], pos: &mut usize) -> Result<f64, String> {
    let mut acc = parse_atom(toks, pos)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Star => {
                *pos += 1;
                acc *= parse_atom(toks, pos)?;
            }
            Tok::Slash => {
                *pos += 1;
                acc /= parse_atom(toks, pos)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_atom(toks: &[Tok], pos: &mut usize) -> Result<f64, String> {
    match toks.get(*pos) {
        Some(Tok::Num(v)) => {
            *pos += 1;
            Ok(*v)
        }
        Some(Tok::Minus) => {
            *pos += 1;
            Ok(-parse_atom(toks, pos)?)
        }
        Some(Tok::Plus) => {
            *pos += 1;
            parse_atom(toks, pos)
        }
        Some(Tok::LParen) => {
            *pos += 1;
            let v = parse_sum(toks, pos)?;
            if toks.get(*pos) != Some(&Tok::RParen) {
                return Err("missing closing paren".into());
            }
            *pos += 1;
            Ok(v)
        }
        _ => Err("expected a value".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::hs_distance;
    use std::f64::consts::PI;

    #[test]
    fn roundtrip() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(PI / 3.0), &[1]);
        c.push(Gate::Cx, &[0, 2]);
        c.push(Gate::U3(0.1, -0.2, 0.3), &[2]);
        c.push(Gate::Ccx, &[0, 1, 2]);
        let text = to_qasm(&c);
        let back = from_qasm(&text).unwrap();
        assert_eq!(back.len(), c.len());
        assert!(hs_distance(&back.unitary(), &c.unitary()) < 1e-7);
    }

    #[test]
    fn single_line_form_parses_to_the_same_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(PI / 3.0), &[1]);
        c.push(Gate::Cx, &[0, 2]);
        c.push(Gate::U3(0.1, -0.2, 0.3), &[2]);
        c.push(Gate::Ccx, &[0, 1, 2]);
        let line = to_qasm_line(&c);
        assert!(!line.contains('\n') && !line.contains('\r'));
        assert_eq!(from_qasm(&line).unwrap(), from_qasm(&to_qasm(&c)).unwrap());
    }

    #[test]
    fn single_line_emit_is_byte_stable() {
        // parse → emit must be a fixpoint: the streaming snapshots rely
        // on stable serialization for differential comparison.
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0.4), &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::U2(-1.25, 0.5), &[1]);
        let line = to_qasm_line(&c);
        let reparsed = from_qasm(&line).unwrap();
        assert_eq!(to_qasm_line(&reparsed), line);
        let text = to_qasm(&c);
        assert_eq!(to_qasm(&from_qasm(&text).unwrap()), text);
    }

    #[test]
    fn small_angles_roundtrip_exactly() {
        // Magnitudes below 0.1 need more than 17 fractional digits;
        // write_param escalates precision until the parse recovers the
        // exact bits. Larger magnitudes keep the historical fixed-width
        // form so golden fixtures stay byte-identical.
        for &a in &[-0.015590366766198294, 1e-9, -3.2e-5, 0.1, -0.7, PI / 3.0] {
            let mut c = Circuit::new(1);
            c.push(Gate::Rz(a), &[0]);
            let back = from_qasm(&to_qasm(&c)).unwrap();
            assert_eq!(back.instruction(0).gate, Gate::Rz(a), "angle {a:e}");
        }
        let render_param = |p: f64| {
            let mut s = String::new();
            write_param(&mut s, p);
            s
        };
        assert_eq!(render_param(0.1), "0.10000000000000001");
        assert_eq!(render_param(2.25), "2.25000000000000000");
    }

    #[test]
    fn empty_circuit_single_line() {
        let c = Circuit::new(4);
        let line = to_qasm_line(&c);
        let back = from_qasm(&line).unwrap();
        assert_eq!(back.num_qubits(), 4);
        assert!(back.is_empty());
    }

    #[test]
    fn parses_pi_expressions() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            rz(pi/4) q[0];
            rz(-pi/2) q[1];
            rz(3*pi/4) q[0];
            cp(pi/8 + pi/8) q[0],q[1];
            u3(0.5, -0.25e1, pi) q[1];
        "#;
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 5);
        match c.instructions()[0].gate {
            Gate::Rz(a) => assert!((a - PI / 4.0).abs() < 1e-12),
            other => panic!("expected rz, got {other}"),
        }
        match c.instructions()[3].gate {
            Gate::Cp(a) => assert!((a - PI / 4.0).abs() < 1e-12),
            other => panic!("expected cp, got {other}"),
        }
    }

    #[test]
    fn rejects_unknown_gate() {
        let src = "qreg q[1];\nfoo q[0];\n";
        let e = from_qasm(src).unwrap_err();
        assert!(e.to_string().contains("unknown gate"));
    }

    #[test]
    fn rejects_out_of_range() {
        let src = "qreg q[1];\nh q[3];\n";
        assert!(from_qasm(src).is_err());
    }

    #[test]
    fn ignores_comments_and_measure() {
        let src = r#"
            OPENQASM 2.0;
            qreg q[2]; creg c[2];
            h q[0]; // a comment
            measure q[0] -> c[0];
            barrier q[0], q[1];
        "#;
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn multiple_statements_one_line() {
        let src = "qreg q[2]; h q[0]; cx q[0],q[1];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c.len(), 2);
    }
}
