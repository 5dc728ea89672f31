//! Correctness of one iteration: digests of its virtual outputs and
//! work counters, compared against the committed reference.
//!
//! Every value an iteration produces is folded into a named 64-bit
//! FNV-1a digest over its exact bits, so a change that moves a single
//! result bit changes the digest. Work counters are stored as plain
//! integers. The reference (`reference.json`, compiled into the binary)
//! holds the expected entries for each workload and input variant; an
//! iteration passes only if it produced exactly the expected entries,
//! each with its expected value, and every invariant it checked held.
//! Entries named `traced.*` come from calls only traced iterations make,
//! so untraced iterations may leave them out.

use std::collections::BTreeMap;

use cpx_obs::Json;

/// Input variants per workload: `--seed n` selects variant `n % VARIANTS`.
pub const VARIANTS: u64 = 16;

/// Prefix of the entries only traced iterations produce.
pub const TRACED: &str = "traced.";

/// Incremental FNV-1a over the exact bits of the values fed in.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one 64-bit word, byte by byte.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold an `f64` by its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold a slice of `f64` (length first, so concatenations differ).
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// Fold a slice of `usize` (length first).
    pub fn usizes(&mut self, vs: &[usize]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything one iteration produced that the check looks at.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    /// Output digests and work counters by name.
    pub entries: BTreeMap<String, u64>,
    /// Invariants that failed, in the order they were checked.
    pub violations: Vec<String>,
}

impl Outputs {
    /// Record a named digest or counter.
    pub fn put(&mut self, name: impl Into<String>, value: u64) {
        self.entries.insert(name.into(), value);
    }

    /// Record a named digest built by `f`.
    pub fn digest(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Digest)) {
        let mut d = Digest::default();
        f(&mut d);
        self.put(name, d.finish());
    }

    /// Check an invariant; a failure is kept as a violation.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Expected entries per workload and variant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    /// `workload -> variant -> entry name -> value`.
    pub table: BTreeMap<String, BTreeMap<u64, BTreeMap<String, u64>>>,
}

impl Reference {
    /// Decode the reference file. Digests are hex strings (they do not
    /// fit a JSON number exactly); counters are numbers.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc = Json::parse(text).map_err(|e| format!("reference: invalid JSON: {e:?}"))?;
        let Json::Obj(workloads) = doc else {
            return Err("reference: top level must be an object".into());
        };
        let mut table = BTreeMap::new();
        for (workload, variants) in workloads {
            let Json::Obj(variants) = variants else {
                return Err(format!("reference: {workload} must be an object"));
            };
            let mut by_variant = BTreeMap::new();
            for (variant, entries) in variants {
                let v: u64 = variant
                    .parse()
                    .map_err(|_| format!("reference: {workload}: bad variant {variant:?}"))?;
                let Json::Obj(entries) = entries else {
                    return Err(format!("reference: {workload}/{v} must be an object"));
                };
                let mut map = BTreeMap::new();
                for (name, value) in entries {
                    let decoded = match &value {
                        Json::Str(s) => s
                            .strip_prefix("0x")
                            .and_then(|h| u64::from_str_radix(h, 16).ok()),
                        other => other.as_u64(),
                    };
                    let decoded = decoded
                        .ok_or_else(|| format!("reference: {workload}/{v}/{name}: bad value"))?;
                    map.insert(name, decoded);
                }
                by_variant.insert(v, map);
            }
            table.insert(workload, by_variant);
        }
        Ok(Reference { table })
    }

    /// Encode in the format [`Reference::parse`] reads: digests as hex
    /// strings, `count.*` and `traced.count.*` entries as numbers.
    pub fn to_json(&self) -> Json {
        let entry = |name: &String, value: u64| {
            let j = if name.trim_start_matches(TRACED).starts_with("count.") {
                Json::Num(value as f64)
            } else {
                Json::Str(format!("0x{value:016x}"))
            };
            (name.clone(), j)
        };
        Json::Obj(
            self.table
                .iter()
                .map(|(workload, variants)| {
                    let vs = variants
                        .iter()
                        .map(|(v, es)| {
                            let es = es.iter().map(|(n, &x)| entry(n, x)).collect();
                            (v.to_string(), Json::Obj(es))
                        })
                        .collect();
                    (workload.clone(), Json::Obj(vs))
                })
                .collect(),
        )
    }

    /// Every way `observed` disagrees with the reference for
    /// `(workload, variant)`: an entry the reference lacks, an expected
    /// entry not produced (`traced.*` ones only when `traced`), a
    /// differing value, or a violated invariant. Empty means the
    /// iteration is correct.
    pub fn mismatches(
        &self,
        workload: &str,
        variant: u64,
        observed: &Outputs,
        traced: bool,
    ) -> Vec<String> {
        let mut out = observed.violations.clone();
        let expected = self.table.get(workload).and_then(|v| v.get(&variant));
        let Some(expected) = expected else {
            out.push(format!("no reference for {workload} variant {variant}"));
            return out;
        };
        for (name, &value) in &observed.entries {
            match expected.get(name) {
                None => out.push(format!("{name}: no reference entry")),
                Some(&want) if want != value => {
                    out.push(format!("{name}: got {value:#018x}, reference {want:#018x}"))
                }
                Some(_) => {}
            }
        }
        for name in expected.keys() {
            if !observed.entries.contains_key(name) && (traced || !name.starts_with(TRACED)) {
                out.push(format!("{name}: expected but not produced"));
            }
        }
        out
    }

    /// Merge `observed` into the table (recording a new reference).
    pub fn record(&mut self, workload: &str, variant: u64, observed: &Outputs) {
        self.table
            .entry(workload.to_string())
            .or_default()
            .entry(variant)
            .or_default()
            .extend(observed.entries.iter().map(|(k, &v)| (k.clone(), v)));
    }
}
