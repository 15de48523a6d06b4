//! A `.bench`-style text format for combinational netlists.
//!
//! ```text
//! # comment
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! n1 = NAND(a, b)
//! y  = NOT(n1)
//! ```
//!
//! `OUTPUT` declarations may appear before the net is defined, as in the
//! ISCAS-85 benchmark files.

use std::collections::HashMap;

use crate::netlist::{GateKind, NetId, Netlist};
use crate::LogicError;

/// Parses a `.bench`-style description.
///
/// # Errors
///
/// [`LogicError::Parse`] with a line number for syntax problems; structural
/// errors (multiple drivers, arity) are reported the same way.
pub fn parse_bench(text: &str) -> Result<Netlist, LogicError> {
    let mut nl = Netlist::new();
    let mut pending_outputs: Vec<(usize, String)> = Vec::new();
    // Gate lines may reference nets defined later; collect and resolve
    // after a dependency-ordered pass.
    struct RawGate {
        line: usize,
        name: String,
        kind: GateKind,
        inputs: Vec<String>,
    }
    let mut raw_gates: Vec<RawGate> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let s = raw.split('#').next().unwrap_or("").trim();
        if s.is_empty() {
            continue;
        }
        if let Some(rest) = s.strip_prefix("INPUT(") {
            let name = rest
                .strip_suffix(')')
                .ok_or_else(|| parse_err(line, "missing ')'"))?;
            nl.add_input(name.trim());
            continue;
        }
        if let Some(rest) = s.strip_prefix("OUTPUT(") {
            let name = rest
                .strip_suffix(')')
                .ok_or_else(|| parse_err(line, "missing ')'"))?;
            pending_outputs.push((line, name.trim().to_string()));
            continue;
        }
        // name = KIND(a, b, ...)
        let (lhs, rhs) = s
            .split_once('=')
            .ok_or_else(|| parse_err(line, "expected 'name = KIND(...)'"))?;
        let name = lhs.trim().to_string();
        let rhs = rhs.trim();
        let (kind_str, args) = rhs
            .split_once('(')
            .ok_or_else(|| parse_err(line, "expected '(' after gate kind"))?;
        let kind = GateKind::parse(kind_str.trim())
            .ok_or_else(|| parse_err(line, &format!("unknown gate kind '{}'", kind_str.trim())))?;
        let args = args
            .strip_suffix(')')
            .ok_or_else(|| parse_err(line, "missing ')'"))?;
        let inputs: Vec<String> = args
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        if inputs.is_empty() {
            return Err(parse_err(line, "gate needs at least one input"));
        }
        raw_gates.push(RawGate {
            line,
            name,
            kind,
            inputs,
        });
    }

    // Dependency-ordered instantiation (gates may be listed out of order).
    let mut defined: HashMap<String, NetId> = nl
        .inputs()
        .iter()
        .map(|&n| (nl.net_name(n).to_string(), n))
        .collect();
    let mut remaining = raw_gates;
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut next_round = Vec::new();
        for rg in remaining {
            if rg.inputs.iter().all(|i| defined.contains_key(i)) {
                let ids: Vec<NetId> = rg.inputs.iter().map(|i| defined[i]).collect();
                let out = nl
                    .add_gate(rg.kind, &rg.name, &ids)
                    .map_err(|e| parse_err(rg.line, &e.to_string()))?;
                defined.insert(rg.name.clone(), out);
            } else {
                next_round.push(rg);
            }
        }
        if next_round.len() == before {
            let first = &next_round[0];
            let missing = first
                .inputs
                .iter()
                .find(|i| !defined.contains_key(*i))
                .cloned()
                .unwrap_or_default();
            return Err(parse_err(
                first.line,
                &format!("undefined net '{missing}' (or combinational cycle)"),
            ));
        }
        remaining = next_round;
    }

    for (line, name) in pending_outputs {
        let net = nl
            .find_net(&name)
            .map_err(|_| parse_err(line, &format!("OUTPUT references undefined net '{name}'")))?;
        nl.mark_output(net);
    }
    Ok(nl)
}

fn parse_err(line: usize, message: &str) -> LogicError {
    LogicError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Serializes a netlist to the `.bench`-style format.
pub fn to_bench(nl: &Netlist) -> String {
    let mut s = String::new();
    for &i in nl.inputs() {
        s.push_str(&format!("INPUT({})\n", nl.net_name(i)));
    }
    for &o in nl.outputs() {
        s.push_str(&format!("OUTPUT({})\n", nl.net_name(o)));
    }
    for g in nl.gates() {
        let args: Vec<&str> = g.inputs.iter().map(|&n| nl.net_name(n)).collect();
        s.push_str(&format!(
            "{} = {}({})\n",
            g.name,
            g.kind.name(),
            args.join(", ")
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::value::Lv;

    const SAMPLE: &str = "
        # half adder
        INPUT(a)
        INPUT(b)
        OUTPUT(sum)
        OUTPUT(carry)
        sum = XOR(a, b)
        carry = AND(a, b)
    ";

    #[test]
    fn parses_half_adder() {
        let nl = parse_bench(SAMPLE).unwrap();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);
        let r = simulate(&nl, &[Lv::One, Lv::One]).unwrap();
        assert_eq!(r.outputs(&nl), vec![Lv::Zero, Lv::One]);
    }

    #[test]
    fn roundtrip_through_text() {
        let nl = parse_bench(SAMPLE).unwrap();
        let text = to_bench(&nl);
        let nl2 = parse_bench(&text).unwrap();
        assert_eq!(nl2.num_gates(), nl.num_gates());
        let r1 = simulate(&nl, &[Lv::One, Lv::Zero]).unwrap().outputs(&nl);
        let r2 = simulate(&nl2, &[Lv::One, Lv::Zero]).unwrap().outputs(&nl2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn out_of_order_definitions_ok() {
        let text = "
            INPUT(a)
            OUTPUT(y)
            y = NOT(m)
            m = NOT(a)
        ";
        let nl = parse_bench(text).unwrap();
        let y = nl.find_net("y").unwrap();
        assert_eq!(simulate(&nl, &[Lv::One]).unwrap().value(y), Lv::One);
    }

    #[test]
    fn undefined_reference_reported_with_line() {
        let text = "INPUT(a)\ny = NOT(zz)\nOUTPUT(y)\n";
        match parse_bench(text) {
            Err(LogicError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("zz"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_kind_reported() {
        let text = "INPUT(a)\ny = FROB(a)\n";
        assert!(matches!(
            parse_bench(text),
            Err(LogicError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hi\nINPUT(a) # trailing\n\nOUTPUT(y)\ny = NOT(a)\n";
        assert!(parse_bench(text).is_ok());
    }

    /// The checked-in ISCAS-85 reference fixture.
    const C17_BENCH: &str = include_str!("../fixtures/c17.bench");

    #[test]
    fn c17_fixture_parses_with_expected_structure() {
        let nl = parse_bench(C17_BENCH).unwrap();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.num_gates(), 6);
        assert_eq!(nl.count_kind(GateKind::Nand), 6);
        assert_eq!(nl.max_depth().unwrap(), 3);
    }

    #[test]
    fn c17_fixture_matches_builtin_circuit_exhaustively() {
        use crate::value::all_vectors;
        let parsed = parse_bench(C17_BENCH).unwrap();
        let builtin = crate::circuits::c17();
        for v in all_vectors(5) {
            let rp = simulate(&parsed, &v).unwrap().outputs(&parsed);
            let rb = simulate(&builtin, &v).unwrap().outputs(&builtin);
            assert_eq!(rp, rb, "vector {v:?}");
        }
    }

    #[test]
    fn c17_fixture_roundtrips_parse_export_parse() {
        use crate::value::all_vectors;
        let nl = parse_bench(C17_BENCH).unwrap();
        let text = to_bench(&nl);
        let nl2 = parse_bench(&text).unwrap();
        assert_eq!(nl2.num_gates(), nl.num_gates());
        assert_eq!(nl2.inputs().len(), nl.inputs().len());
        assert_eq!(nl2.outputs().len(), nl.outputs().len());
        for v in all_vectors(5) {
            let r1 = simulate(&nl, &v).unwrap().outputs(&nl);
            let r2 = simulate(&nl2, &v).unwrap().outputs(&nl2);
            assert_eq!(r1, r2, "vector {v:?}");
        }
        // Exporting the reparse reproduces the text exactly: the format
        // is canonical once it has gone through a parse.
        assert_eq!(to_bench(&nl2), text);
    }

    #[test]
    fn generator_circuits_roundtrip_through_bench_text() {
        use crate::circuits;
        use crate::soa::SoaNetlist;
        use crate::value::Lv;
        use crate::wide::WideBlock;
        for nl in [
            circuits::carry_select_adder(4, 2),
            circuits::array_multiplier(3),
            circuits::nand_tree(9),
        ] {
            let text = to_bench(&nl);
            let nl2 = parse_bench(&text).unwrap();
            assert_eq!(nl2.num_gates(), nl.num_gates());
            // Drive both with the same packed random block and compare POs.
            let mut state = 0xABCDu64;
            let vectors: Vec<Vec<Lv>> = (0..64)
                .map(|_| {
                    (0..nl.inputs().len())
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            Lv::from_bool(state & 1 == 1)
                        })
                        .collect()
                })
                .collect();
            let block = WideBlock::<1>::pack(&vectors).unwrap();
            let (mut r1, mut r2) = (Vec::new(), Vec::new());
            SoaNetlist::compile(&nl)
                .unwrap()
                .simulate_wide_into(&block, &mut r1)
                .unwrap();
            SoaNetlist::compile(&nl2)
                .unwrap()
                .simulate_wide_into(&block, &mut r2)
                .unwrap();
            for (&o1, &o2) in nl.outputs().iter().zip(nl2.outputs()) {
                assert_eq!(r1[o1.index()], r2[o2.index()]);
            }
        }
    }
}
