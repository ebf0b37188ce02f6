//! Result digests and the golden values they are checked against.

use std::collections::BTreeMap;

use scidock::PairResult;

/// Digest of a results relation, independent of row order and of the
/// backend that produced it: one line per docked pair (receptor, ligand,
/// engine, FEB and RMSD by their bits), sorted, hashed with the same FNV-1a
/// the grid cache keys with.
pub fn results_digest(results: &[PairResult]) -> String {
    let mut lines: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{}\x1f{}\x1f{}\x1f{:016x}\x1f{:016x}",
                r.receptor,
                r.ligand,
                r.engine,
                r.feb.to_bits(),
                r.rmsd.to_bits()
            )
        })
        .collect();
    lines.sort();
    format!("{:016x}", docking::gridio::fnv1a64(lines.join("\n").as_bytes()))
}

/// What is pinned for one campaign spec in `golden.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// FINISHED activation rows.
    pub finished: u64,
    /// BLACKLISTED activation rows.
    pub blacklisted: u64,
    /// Docked pairs (FINISHED `autodock4` + `vina` activations).
    pub docked: u64,
    /// [`results_digest`] of the results relation.
    pub digest: String,
}

/// Parse `golden.json`: one flat object per spec,
/// `{"<spec>": {"finished": n, "blacklisted": n, "docked": n, "digest": "hex"}}`.
pub fn parse_golden(text: &str) -> Result<BTreeMap<String, Golden>, String> {
    let mut out = BTreeMap::new();
    let body = text.trim().strip_prefix('{').and_then(|t| t.strip_suffix('}'));
    let mut rest = body.ok_or("golden.json is not one object")?.trim();
    while !rest.is_empty() {
        let (spec, after) = take_string(rest)?;
        let after = after.trim_start().strip_prefix(':').ok_or("expected ':' after a spec")?;
        let after = after.trim_start().strip_prefix('{').ok_or("expected '{' after a spec")?;
        let (fields, after) = after.split_once('}').ok_or("unterminated spec object")?;
        let mut map = BTreeMap::new();
        for field in fields.split(',') {
            let (k, v) = field.split_once(':').ok_or_else(|| format!("bad field {field:?}"))?;
            map.insert(k.trim().trim_matches('"').to_string(), v.trim().trim_matches('"'));
        }
        let num = |k: &str| -> Result<u64, String> {
            map.get(k).and_then(|v| v.parse().ok()).ok_or_else(|| format!("{spec}: bad {k}"))
        };
        let digest = map.get("digest").ok_or_else(|| format!("{spec}: no digest"))?.to_string();
        out.insert(
            spec.clone(),
            Golden {
                finished: num("finished")?,
                blacklisted: num("blacklisted")?,
                docked: num("docked")?,
                digest,
            },
        );
        rest = after.trim_start().strip_prefix(',').unwrap_or(after).trim_start();
    }
    Ok(out)
}

fn take_string(s: &str) -> Result<(String, &str), String> {
    let s = s.strip_prefix('"').ok_or_else(|| format!("expected a string at {s:.20?}"))?;
    let (body, rest) = s.split_once('"').ok_or("unterminated string")?;
    Ok((body.to_string(), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pr(receptor: &str, ligand: &str, feb: f64) -> PairResult {
        PairResult {
            receptor: receptor.into(),
            ligand: ligand.into(),
            engine: "vina".into(),
            feb,
            rmsd: 1.5,
        }
    }

    #[test]
    fn digest_ignores_row_order_but_not_float_bits() {
        let a = [pr("1AEC", "042", -7.25), pr("1HUC", "0D6", -3.5)];
        let b = [a[1].clone(), a[0].clone()];
        assert_eq!(results_digest(&a), results_digest(&b));
        // -0.0 == 0.0 as floats; their bits differ, and so must the digest
        assert_ne!(
            results_digest(&[pr("1AEC", "042", 0.0)]),
            results_digest(&[pr("1AEC", "042", -0.0)])
        );
        // the next float up differs in the last bit only
        let up = f64::from_bits((-7.25f64).to_bits() + 1);
        assert_ne!(
            results_digest(&[pr("1AEC", "042", -7.25)]),
            results_digest(&[pr("1AEC", "042", up)])
        );
        // moving a value across a cell boundary changes the digest
        assert_ne!(
            results_digest(&[pr("1AEC0", "42", 1.0)]),
            results_digest(&[pr("1AEC", "042", 1.0)])
        );
        assert_eq!(results_digest(&[]).len(), 16);
    }

    #[test]
    fn golden_file_round_trips() {
        let text = r#"{
          "scidock:adaptive:2x2": {"finished": 30, "blacklisted": 0, "docked": 4, "digest": "00ff00ff00ff00ff"},
          "unit:x": {"finished": 1, "blacklisted": 2, "docked": 3, "digest": "abc"}
        }"#;
        let g = parse_golden(text).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(
            g["scidock:adaptive:2x2"],
            Golden { finished: 30, blacklisted: 0, docked: 4, digest: "00ff00ff00ff00ff".into() }
        );
        assert_eq!(g["unit:x"].blacklisted, 2);
        assert!(parse_golden("[]").is_err());
        assert!(parse_golden(r#"{"a": {"finished": "x"}}"#).is_err());
    }
}
