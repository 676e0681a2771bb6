//! The magnitude-range certification lint.
//!
//! The lazy-reduction tower in `crates/pairing` (DESIGN.md §11) breaks
//! the "always reduced" representation invariant on purpose: values
//! flow through `add_unreduced`/`mul_unreduced` chains and are folded
//! back below `p` by one deferred Montgomery pass. That is only sound
//! while every intermediate stays inside the limb headroom the modulus
//! leaves — one `add_unreduced` too many silently wraps the top limb,
//! release builds don't panic, and small-number tests never notice.
//!
//! This pass certifies those chains statically. Every field value gets
//! a symbolic **magnitude class**: `<Np` (narrow, `N` units of `p` in
//! one limb vector) or `<Npp` (wide, `N` units of `p²` in a
//! double-width accumulator). The caps come from the committed
//! `montgomery_field!` invocations themselves: a modulus of bit length
//! `b` over `n` limbs leaves `h = 64·n − b` headroom bits, so narrow
//! classes may reach `2^h` and wide classes the largest power of two
//! `W ≤ 2^2h` with `W·p² + p·2^64n < 2^128n` (the REDC rounds add up
//! to `p·2^64n` before dividing, so the accumulator needs that much
//! slack on top of the product itself). For BLS12-381 that is `8` and
//! `64`; for the thin 255-bit `Fr` it is `2` and `2` — which is why no
//! lazy `Fr` chains exist.
//!
//! Contracts are declared as comments on the lazy entry points:
//!
//! ```text
//! // range: <p              inputs canonical, output canonical
//! // range: <2p -> <16pp    inputs below 2p, output below 16p²
//! ```
//!
//! The lint propagates classes through each annotated body using the
//! transfer functions of the primitives (`add_unreduced` sums classes,
//! `mul_unreduced` multiplies into the wide lattice, `wide_sub_offset`
//! adds its `k·p²` headroom offset and requires `k` to cover the
//! subtrahend, `montgomery_reduce` returns to canonical) and fails the
//! gate on: a class above a cap, a subtrahend without headroom, an
//! unreduced value escaping into an eager or unknown operation, a
//! contract that disagrees with what the body computes (stale), and a
//! lazy call inside a function that declares no contract at all.
//!
//! Deliberate over-approximations: classes are powers-free integers
//! (no term cancellation), every struct literal takes the worst
//! component, and annotated bodies must be straight-line — control
//! flow around unreduced values is itself a finding.
//!
//! A reviewed site is suppressed with `// range-ok: <reason>`; a bare
//! marker is itself a finding, like every other suppression in this
//! gate.

use std::collections::HashMap;
use std::fmt;

use crate::lexer::{self, is_ident_char};
use crate::parser::{split_top_level, FnItem, ParsedFile};
use crate::{suppression_near, Finding, Suppression};

/// The suppression marker for this lint.
pub const ALLOW_MARKER: &str = "range-ok:";

/// The contract marker: a comment line `// range: <class> [-> <class>]`
/// directly above a declaration (doc comments `///` never match).
const CONTRACT_MARKER: &str = "// range:";

/// The lazy intrinsics: their bodies *are* the reviewed carry/headroom
/// implementations, so the lint applies their transfer functions at
/// call sites instead of analyzing them against themselves.
pub const INTRINSIC_FNS: &[&str] = &[
    "add_unreduced",
    "sub_unreduced",
    "mul_unreduced",
    "reduce",
    "wide_add",
    "wide_sub",
    "wide_sub_offset",
    "montgomery_reduce",
    "wide_add2",
    "wide_sub2",
    "wide_nonresidue2",
    "montgomery_reduce2",
];

/// Extension-field combinators with exact symbolic transfers *and*
/// lint-checked bodies: call sites get the precise class (e.g.
/// `mul_unreduced2` yields `max(Na·Nb + 4, 4·Na·Nb)` for its internal
/// `4p²` offset and operand sums), while the declared contract is
/// verified against the body like any other annotation.
pub const SYMBOLIC_FNS: &[&str] = &["add_unreduced2", "sub_unreduced2", "mul_unreduced2"];

/// A symbolic magnitude class: `Narrow(n)` is a single-width value
/// below `n·p`, `Wide(n)` a double-width accumulator below `n·p²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Magnitude {
    /// Single-width, below `n·p`. Canonical values are `Narrow(1)`.
    Narrow(u64),
    /// Double-width, below `n·p²`.
    Wide(u64),
}

impl fmt::Display for Magnitude {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Magnitude::Narrow(1) => write!(f, "<p"),
            Magnitude::Narrow(n) => write!(f, "<{n}p"),
            Magnitude::Wide(n) => write!(f, "<{n}pp"),
        }
    }
}

/// Headroom caps of one `montgomery_field!` invocation.
#[derive(Debug)]
struct FieldCaps {
    /// The field type name (`Fp`, `Fr`).
    name: String,
    /// Largest sound narrow class (`2^h`).
    narrow: u64,
    /// Largest sound wide class (power of two with REDC slack).
    wide: u64,
}

/// A declared `// range:` contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Contract {
    /// Class every field-typed input is assumed to have.
    input: Magnitude,
    /// Class the output is declared to have.
    output: Magnitude,
}

/// Runs the magnitude-range analysis over the parsed scope. Only the
/// pairing crate (and bare-named unit-test inputs) is considered: the
/// lazy primitives live there, and name collisions elsewhere (iterator
/// `reduce`, HMAC `mac`) must not leak findings into other crates.
pub fn analyze(files: &[ParsedFile]) -> Vec<Finding> {
    let scope: Vec<&ParsedFile> = files
        .iter()
        .filter(|f| f.path.starts_with("crates/pairing/") || !f.path.starts_with("crates/"))
        .collect();
    let caps = scan_field_caps(&scope);

    // Pass 1: collect declared contracts (name-keyed, like call sites
    // resolve them) and report conflicts/parse errors.
    let mut raw_findings: Vec<(String, usize, String)> = Vec::new();
    let mut contracts: HashMap<String, (Contract, String)> = HashMap::new();
    for file in &scope {
        for item in &file.fns {
            if item.is_test {
                continue;
            }
            match contract_for(&file.raw_lines, item.decl_line) {
                None => {}
                Some(Err(bad)) => raw_findings.push((
                    file.path.clone(),
                    item.decl_line,
                    format!(
                        "`{}` has an unparseable magnitude contract: {bad}",
                        item.name
                    ),
                )),
                Some(Ok(c)) => match contracts.get(&item.name) {
                    Some((prev, at)) if *prev != c => raw_findings.push((
                        file.path.clone(),
                        item.decl_line,
                        format!(
                            "`{}` declares contract `{} -> {}` but `{}` at {at} declares \
                             `{} -> {}`: call sites resolve contracts by name, so they must \
                             agree",
                            item.name, c.input, c.output, item.name, prev.input, prev.output
                        ),
                    )),
                    Some(_) => {}
                    None => {
                        contracts.insert(
                            item.name.clone(),
                            (c, format!("{}:{}", file.path, item.decl_line)),
                        );
                    }
                },
            }
        }
    }
    let table: HashMap<String, Contract> = contracts
        .iter()
        .map(|(k, (c, _))| (k.clone(), *c))
        .collect();

    // Pass 2: per function — missing-annotation rule for unannotated
    // callers of lazy primitives, body certification for annotated ones.
    for file in &scope {
        for item in &file.fns {
            if item.is_test || INTRINSIC_FNS.contains(&item.name.as_str()) {
                continue;
            }
            let contract = match contract_for(&file.raw_lines, item.decl_line) {
                Some(Ok(c)) => Some(c),
                Some(Err(_)) => continue, // already reported above
                None => None,
            };
            let Some(contract) = contract else {
                if let Some(call) = item
                    .calls
                    .iter()
                    .filter(|c| is_lazy_name(&c.callee))
                    .min_by_key(|c| c.line)
                {
                    raw_findings.push((
                        file.path.clone(),
                        call.line,
                        format!(
                            "`{}` calls lazy primitive `{}` but declares no `// range:` \
                             contract, so its magnitude chain is uncertified",
                            item.name, call.callee
                        ),
                    ));
                }
                continue;
            };
            let Some(field) = caps_for(&caps, item.owner.as_deref()) else {
                raw_findings.push((
                    file.path.clone(),
                    item.decl_line,
                    format!(
                        "`{}` declares a magnitude contract but no `montgomery_field!` \
                         invocation is in scope to derive headroom caps from",
                        item.name
                    ),
                ));
                continue;
            };
            let mut eval = Eval {
                fn_name: &item.name,
                caps: field,
                contracts: &table,
                env: HashMap::new(),
                findings: Vec::new(),
                line: item.decl_line,
            };
            eval.certify_body(item, contract);
            for (line, msg) in eval.findings {
                raw_findings.push((file.path.clone(), line, msg));
            }
        }
    }

    // Suppression filter, mirroring the other lints.
    let mut findings = Vec::new();
    for (path, line, message) in raw_findings {
        let raw: Vec<&str> = scope
            .iter()
            .find(|f| f.path == path)
            .map(|f| f.raw_lines.iter().map(String::as_str).collect())
            .unwrap_or_default();
        match suppression_near(&raw, line, ALLOW_MARKER) {
            Suppression::Justified => {}
            Suppression::MissingReason => findings.push(Finding {
                file: path,
                line,
                lint: "range",
                message: format!("{message} (range-ok present but gives no reason)"),
            }),
            Suppression::None => findings.push(Finding {
                file: path,
                line,
                lint: "range",
                message,
            }),
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// True for names whose presence in a body means the function handles
/// unreduced values and therefore needs a contract.
fn is_lazy_name(name: &str) -> bool {
    INTRINSIC_FNS.contains(&name) || SYMBOLIC_FNS.contains(&name)
}

// ---------------------------------------------------------------------
// Headroom caps from the committed montgomery_field! invocations.
// ---------------------------------------------------------------------

/// Scans the scope's scrubbed source for `montgomery_field!(Name, n,
/// [limbs])` invocations and derives each field's caps.
fn scan_field_caps(scope: &[&ParsedFile]) -> Vec<FieldCaps> {
    let mut out: Vec<FieldCaps> = Vec::new();
    for file in scope {
        let scrubbed = lexer::scrub(&file.raw_lines.join("\n"));
        let mut from = 0;
        while let Some(pos) = scrubbed[from..].find("montgomery_field!") {
            let start = from + pos + "montgomery_field!".len();
            from = start;
            if let Some(caps) = parse_invocation(&scrubbed[start..]) {
                if !out.iter().any(|c| c.name == caps.name) {
                    out.push(caps);
                }
            }
        }
    }
    out
}

/// Parses one invocation tail `( Name , n , [limb, ...] )`.
fn parse_invocation(text: &str) -> Option<FieldCaps> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() && chars[i].is_whitespace() {
        i += 1;
    }
    if chars.get(i) != Some(&'(') {
        return None;
    }
    i += 1;
    // Field name: the first identifier (scrubbed doc attributes leave
    // only whitespace before it).
    while i < chars.len() && !is_ident_char(chars[i]) {
        if chars[i] == ')' {
            return None;
        }
        i += 1;
    }
    let name_start = i;
    while i < chars.len() && is_ident_char(chars[i]) {
        i += 1;
    }
    let name: String = chars[name_start..i].iter().collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    // Limb count.
    while i < chars.len() && !chars[i].is_ascii_digit() {
        i += 1;
    }
    let n_start = i;
    while i < chars.len() && chars[i].is_ascii_digit() {
        i += 1;
    }
    let n: usize = chars[n_start..i].iter().collect::<String>().parse().ok()?;
    // Limb array.
    let open = (i..chars.len()).find(|&j| chars[j] == '[')?;
    let close = (open..chars.len()).find(|&j| chars[j] == ']')?;
    let body: String = chars[open + 1..close].iter().collect();
    let mut limbs = Vec::new();
    for part in body.split(',') {
        let t: String = part.trim().replace('_', "");
        if t.is_empty() {
            continue;
        }
        let v = match t.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok()?,
            None => t.parse().ok()?,
        };
        limbs.push(v);
    }
    if limbs.len() != n || n == 0 {
        return None;
    }
    let bits = bit_len(&limbs);
    let headroom = (64 * n).checked_sub(bits)?;
    let h = headroom.min(16) as u32;
    let narrow = 1u64 << h;
    let wide = wide_cap(&limbs, h);
    Some(FieldCaps { name, narrow, wide })
}

/// Bit length of a little-endian limb value.
fn bit_len(limbs: &[u64]) -> usize {
    for (i, &l) in limbs.iter().enumerate().rev() {
        if l != 0 {
            return i * 64 + (64 - l.leading_zeros() as usize);
        }
    }
    0
}

/// The largest power-of-two wide cap `W ≤ 2^2h` with
/// `W·p² + p·2^(64n) < 2^(128n)` — the REDC rounds add up to
/// `p·2^(64n)` to the accumulator before dividing, so the certified
/// bound must leave that much slack in `2n` limbs.
fn wide_cap(modulus: &[u64], h: u32) -> u64 {
    let n = modulus.len();
    let p2 = big_mul(modulus, modulus);
    let mut cap = 1u64 << (2 * h).min(32);
    while cap > 1 {
        // t = cap·p² + p·2^(64n), checked to fit in 2n limbs.
        let mut t = big_scale(&p2, cap);
        for (i, &l) in modulus.iter().enumerate() {
            big_add_at(&mut t, l, n + i);
        }
        if t.iter().skip(2 * n).all(|&l| l == 0) {
            return cap;
        }
        cap /= 2;
    }
    1
}

/// Schoolbook product of two little-endian limb values.
fn big_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut t = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let v = u128::from(t[i + j]) + u128::from(ai) * u128::from(bj) + carry;
            t[i + j] = v as u64;
            carry = v >> 64;
        }
        t[i + b.len()] = carry as u64;
    }
    t
}

/// Scales a limb value by a small factor (one guard limb appended).
fn big_scale(a: &[u64], k: u64) -> Vec<u64> {
    let mut t = vec![0u64; a.len() + 1];
    let mut carry = 0u128;
    for (i, &ai) in a.iter().enumerate() {
        let v = u128::from(ai) * u128::from(k) + carry;
        t[i] = v as u64;
        carry = v >> 64;
    }
    t[a.len()] = carry as u64;
    t
}

/// Adds `limb` into `t[at]`, propagating the carry.
fn big_add_at(t: &mut Vec<u64>, limb: u64, at: usize) {
    if at >= t.len() {
        t.resize(at + 1, 0);
    }
    let mut carry = u128::from(limb);
    let mut i = at;
    while carry != 0 {
        if i >= t.len() {
            t.push(0);
        }
        let v = u128::from(t[i]) + carry;
        t[i] = v as u64;
        carry = v >> 64;
        i += 1;
    }
}

/// Resolves the caps governing a function: longest field-name prefix of
/// the owner type (`Fp2Wide` → `Fp`), else the unique field with at
/// least three headroom bits (the only kind lazy chains exist for).
fn caps_for<'a>(caps: &'a [FieldCaps], owner: Option<&str>) -> Option<&'a FieldCaps> {
    if let Some(o) = owner {
        if let Some(best) = caps
            .iter()
            .filter(|c| o.starts_with(&c.name))
            .max_by_key(|c| c.name.len())
        {
            return Some(best);
        }
    }
    let mut roomy = caps.iter().filter(|c| c.narrow >= 8);
    match (roomy.next(), roomy.next()) {
        (Some(one), None) => Some(one),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Contract comments.
// ---------------------------------------------------------------------

/// Finds the `// range:` contract attached to the declaration at
/// `decl_line` (1-based): on the line itself or in the contiguous run
/// of comment/attribute lines directly above.
fn contract_for(raw_lines: &[String], decl_line: usize) -> Option<Result<Contract, String>> {
    let mut line = decl_line;
    loop {
        let text = raw_lines.get(line.checked_sub(1)?)?;
        let trimmed = text.trim_start();
        if line != decl_line && !trimmed.starts_with("//") && !trimmed.starts_with("#[") {
            return None;
        }
        if let Some(pos) = text.find(CONTRACT_MARKER) {
            // `/// ... range:` doc text does not start a comment here.
            let spec = text[pos + CONTRACT_MARKER.len()..].trim();
            return Some(parse_contract(spec));
        }
        line = line.checked_sub(1)?;
        if line == 0 {
            return None;
        }
    }
}

/// Parses `<class>` or `<class> -> <class>`.
fn parse_contract(spec: &str) -> Result<Contract, String> {
    let (input, output) = match spec.split_once("->") {
        Some((i, o)) => (parse_class(i.trim())?, parse_class(o.trim())?),
        None => (Magnitude::Narrow(1), parse_class(spec)?),
    };
    if matches!(input, Magnitude::Wide(_)) {
        return Err(format!(
            "`{input}` cannot be an input class: wide accumulators never cross \
             annotated entry points"
        ));
    }
    Ok(Contract { input, output })
}

/// Parses one class token: `<p`, `<4p`, `<16pp`.
fn parse_class(tok: &str) -> Result<Magnitude, String> {
    let body = tok
        .strip_prefix('<')
        .ok_or_else(|| format!("`{tok}` does not start with `<`"))?;
    let digits: String = body.chars().take_while(char::is_ascii_digit).collect();
    let n: u64 = if digits.is_empty() {
        1
    } else {
        digits
            .parse()
            .map_err(|_| format!("`{tok}` has an out-of-range class"))?
    };
    match &body[digits.len()..] {
        "p" => Ok(Magnitude::Narrow(n)),
        "pp" => Ok(Magnitude::Wide(n)),
        other => Err(format!("`{tok}` ends in `{other}`, expected `p` or `pp`")),
    }
}

// ---------------------------------------------------------------------
// The statement/expression evaluator.
// ---------------------------------------------------------------------

struct Eval<'a> {
    fn_name: &'a str,
    caps: &'a FieldCaps,
    contracts: &'a HashMap<String, Contract>,
    env: HashMap<String, Magnitude>,
    findings: Vec<(usize, String)>,
    line: usize,
}

impl Eval<'_> {
    /// Certifies one annotated body against its contract.
    fn certify_body(&mut self, item: &FnItem, contract: Contract) {
        for p in &item.params {
            if !p.name.is_empty() {
                self.env.insert(p.name.clone(), contract.input);
            }
        }
        let inner = item
            .body
            .trim()
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .unwrap_or(&item.body)
            .to_owned();
        let mut tail: Option<Magnitude> = None;
        for (rel, stmt) in split_statements(&inner) {
            self.line = item.body_line + rel;
            let t = stmt.trim();
            if t.is_empty() || is_macro_stmt(t) {
                continue;
            }
            if ["if ", "if(", "for ", "while ", "loop ", "loop{", "match "]
                .iter()
                .any(|kw| t.starts_with(kw))
                || t == "loop"
            {
                self.report(format!(
                    "control flow inside `{}`'s lazy-annotated body is outside the \
                     magnitude model; keep certified chains straight-line",
                    self.fn_name
                ));
                tail = None;
                continue;
            }
            if let Some(rest) = t.strip_prefix("let ") {
                self.bind_let(rest);
                tail = None;
            } else {
                tail = Some(self.eval(t));
            }
        }
        self.line = item.decl_line;
        match tail {
            Some(out) if out != contract.output => self.report(format!(
                "stale contract on `{}`: declared output `{}` but the body computes `{out}`",
                self.fn_name, contract.output
            )),
            Some(_) => {}
            None => self.report(format!(
                "`{}` is annotated but its body has no tail expression to certify",
                self.fn_name
            )),
        }
    }

    /// Handles `let [mut] <pat> [: ty] = <expr>`.
    fn bind_let(&mut self, rest: &str) {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let Some(eq) = top_level_eq(rest) else {
            return;
        };
        let (lhs, rhs) = rest.split_at(eq);
        let rhs = &rhs[1..];
        let class = self.eval(rhs);
        let pat = lhs.split(':').next().unwrap_or(lhs);
        let names: Vec<String> = pat
            .split(|c: char| !is_ident_char(c))
            .filter(|w| !w.is_empty() && *w != "_" && *w != "mut" && *w != "ref")
            .map(str::to_owned)
            .collect();
        for name in names {
            self.env.insert(name, class);
        }
    }

    fn report(&mut self, message: String) {
        self.findings.push((self.line, message));
    }

    /// Evaluates one expression to a magnitude class.
    fn eval(&mut self, text: &str) -> Magnitude {
        let t = text.trim().trim_start_matches(['&', '*', ' ']);
        let chars: Vec<char> = t.chars().collect();
        let (mut class, mut pos) = self.eval_head(&chars);
        loop {
            while pos < chars.len() && chars[pos].is_whitespace() {
                pos += 1;
            }
            match chars.get(pos) {
                Some('.') => {
                    let name_start = pos + 1;
                    let mut j = name_start;
                    while j < chars.len() && is_ident_char(chars[j]) {
                        j += 1;
                    }
                    if j == name_start {
                        break;
                    }
                    let name: String = chars[name_start..j].iter().collect();
                    let mut k = j;
                    while k < chars.len() && chars[k].is_whitespace() {
                        k += 1;
                    }
                    if chars.get(k) == Some(&'(') {
                        let close = match_paren(&chars, k).unwrap_or(chars.len() - 1);
                        let args_text: String = chars[k + 1..close].iter().collect();
                        let args: Vec<String> = split_top_level(&args_text)
                            .into_iter()
                            .map(|a| a.trim().to_owned())
                            .filter(|a| !a.is_empty())
                            .collect();
                        class = self.apply(&name, class, &args);
                        pos = close + 1;
                    } else {
                        // Field access (`.c0`, `.0`): class-preserving.
                        pos = j;
                    }
                }
                Some('?') => pos += 1,
                _ => break,
            }
        }
        class
    }

    /// Evaluates the head of an expression: a parenthesized group, a
    /// struct literal, a path call, or a plain binding.
    fn eval_head(&mut self, chars: &[char]) -> (Magnitude, usize) {
        if chars.first() == Some(&'(') {
            let close = match_paren(chars, 0).unwrap_or(chars.len() - 1);
            let inner: String = chars[1..close].iter().collect();
            return (self.eval(&inner), close + 1);
        }
        // Leading path: ident (:: ident)*
        let mut i = 0;
        let mut last: String;
        loop {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            if i == start {
                return (Magnitude::Narrow(1), i);
            }
            last = chars[start..i].iter().collect();
            if chars.get(i) == Some(&':') && chars.get(i + 1) == Some(&':') {
                i += 2;
            } else {
                break;
            }
        }
        let mut k = i;
        while k < chars.len() && chars[k].is_whitespace() {
            k += 1;
        }
        match chars.get(k) {
            Some('(') => {
                // Free/associated call: first argument is the receiver.
                let close = match_paren(chars, k).unwrap_or(chars.len() - 1);
                let args_text: String = chars[k + 1..close].iter().collect();
                let mut args: Vec<String> = split_top_level(&args_text)
                    .into_iter()
                    .map(|a| a.trim().to_owned())
                    .filter(|a| !a.is_empty())
                    .collect();
                let recv = if args.is_empty() {
                    Magnitude::Narrow(1)
                } else {
                    let first = args.remove(0);
                    self.eval(&first)
                };
                (self.apply(&last, recv, &args), close + 1)
            }
            Some('{') if is_type_name(&last) => {
                let close = match_brace(chars, k).unwrap_or(chars.len() - 1);
                let inner: String = chars[k + 1..close].iter().collect();
                let mut worst: Option<Magnitude> = None;
                for field in split_top_level(&inner) {
                    let value = match field.split_once(':') {
                        Some((_, v)) => v.to_owned(),
                        None => field,
                    };
                    if value.trim().is_empty() {
                        continue;
                    }
                    let c = self.eval(&value);
                    worst = Some(match worst {
                        None => c,
                        Some(w) => self.max_class(w, c),
                    });
                }
                (worst.unwrap_or(Magnitude::Narrow(1)), close + 1)
            }
            _ => (
                self.env.get(&last).copied().unwrap_or(Magnitude::Narrow(1)),
                i,
            ),
        }
    }

    /// Worst of two classes; mixing lattices in one struct literal is a
    /// finding (no shipped type holds narrow and wide halves).
    fn max_class(&mut self, a: Magnitude, b: Magnitude) -> Magnitude {
        match (a, b) {
            (Magnitude::Narrow(x), Magnitude::Narrow(y)) => Magnitude::Narrow(x.max(y)),
            (Magnitude::Wide(x), Magnitude::Wide(y)) => Magnitude::Wide(x.max(y)),
            _ => {
                self.report(format!(
                    "struct literal in `{}` mixes narrow and wide magnitude classes",
                    self.fn_name
                ));
                a
            }
        }
    }

    /// Narrow class of an operand, reporting a lattice mismatch.
    fn narrow_of(&mut self, m: Magnitude, call: &str) -> u64 {
        match m {
            Magnitude::Narrow(n) => n,
            Magnitude::Wide(_) => {
                self.report(format!(
                    "wide accumulator passed to single-width `{call}` in `{}`",
                    self.fn_name
                ));
                1
            }
        }
    }

    /// Wide class of an operand, reporting a lattice mismatch.
    fn wide_of(&mut self, m: Magnitude, call: &str) -> u64 {
        match m {
            Magnitude::Wide(n) => n,
            Magnitude::Narrow(_) => {
                self.report(format!(
                    "single-width value passed to wide `{call}` in `{}`",
                    self.fn_name
                ));
                1
            }
        }
    }

    /// Caps a freshly produced class against the field's headroom.
    fn check_cap(&mut self, m: Magnitude, call: &str) -> Magnitude {
        match m {
            Magnitude::Narrow(n) if n > self.caps.narrow => {
                self.report(format!(
                    "`{call}` in `{}` reaches class `{m}`, exceeding `{}`'s narrow cap \
                     of {}p (headroom overflow)",
                    self.fn_name, self.caps.name, self.caps.narrow
                ));
                Magnitude::Narrow(self.caps.narrow)
            }
            Magnitude::Wide(n) if n > self.caps.wide => {
                self.report(format!(
                    "`{call}` in `{}` reaches class `{m}`, exceeding `{}`'s wide cap \
                     of {}pp (headroom overflow)",
                    self.fn_name, self.caps.name, self.caps.wide
                ));
                Magnitude::Wide(self.caps.wide)
            }
            ok => ok,
        }
    }

    /// First non-literal argument, evaluated.
    fn operand(&mut self, args: &[String]) -> Magnitude {
        for a in args {
            if int_literal(a).is_none() {
                return self.eval(a);
            }
        }
        Magnitude::Narrow(1)
    }

    /// First integer-literal argument (the explicit `k·p²` offsets).
    fn offset(&mut self, args: &[String], call: &str) -> u64 {
        match args.iter().find_map(|a| int_literal(a)) {
            Some(k) => k,
            None => {
                self.report(format!(
                    "`{call}` in `{}` needs a literal `k` offset argument for the \
                     magnitude model",
                    self.fn_name
                ));
                0
            }
        }
    }

    /// Applies one call's transfer function.
    fn apply(&mut self, name: &str, recv: Magnitude, args: &[String]) -> Magnitude {
        match name {
            "add_unreduced" | "add_unreduced2" => {
                let na = self.narrow_of(recv, name);
                let op = self.operand(args);
                let nb = self.narrow_of(op, name);
                self.check_cap(Magnitude::Narrow(na + nb), name)
            }
            "sub_unreduced" | "sub_unreduced2" => {
                let na = self.narrow_of(recv, name);
                let op = self.operand(args);
                let nb = self.narrow_of(op, name);
                if nb > 2 {
                    self.report(format!(
                        "`{name}` in `{}` subtracts a class `<{nb}p` value, but its fixed \
                         `+2p` offset only covers subtrahends below 2p",
                        self.fn_name
                    ));
                }
                self.check_cap(Magnitude::Narrow(na + 2), name)
            }
            "mul_unreduced" => {
                let na = self.narrow_of(recv, name);
                let op = self.operand(args);
                let nb = self.narrow_of(op, name);
                self.check_cap(Magnitude::Wide(na * nb), name)
            }
            "mul_unreduced2" => {
                let na = self.narrow_of(recv, name);
                let op = self.operand(args);
                let nb = self.narrow_of(op, name);
                if 2 * na > self.caps.narrow || 2 * nb > self.caps.narrow {
                    self.report(format!(
                        "`mul_unreduced2` in `{}` sums operand components to class \
                         `<{}p`, exceeding `{}`'s narrow cap of {}p",
                        self.fn_name,
                        (2 * na).max(2 * nb),
                        self.caps.name,
                        self.caps.narrow
                    ));
                }
                if na * nb > 4 {
                    self.report(format!(
                        "`mul_unreduced2` in `{}` forms a class `<{}pp` cross product, \
                         but its internal `4p²` offset only covers products below 4p²",
                        self.fn_name,
                        na * nb
                    ));
                }
                self.check_cap(Magnitude::Wide((na * nb + 4).max(4 * na * nb)), name)
            }
            "reduce" => {
                self.narrow_of(recv, name);
                Magnitude::Narrow(1)
            }
            "wide_add" | "wide_add2" => {
                let wa = self.wide_of(recv, name);
                let op = self.operand(args);
                let wb = self.wide_of(op, name);
                self.check_cap(Magnitude::Wide(wa + wb), name)
            }
            "wide_sub" => {
                let wa = self.wide_of(recv, name);
                let op = self.operand(args);
                let wb = self.wide_of(op, name);
                if wb > wa {
                    self.report(format!(
                        "offset-free `wide_sub` in `{}` subtracts class `<{wb}pp` from \
                         `<{wa}pp`; the class condition requires subtrahend <= minuend",
                        self.fn_name
                    ));
                }
                Magnitude::Wide(wa)
            }
            "wide_sub_offset" | "wide_sub2" => {
                let wa = self.wide_of(recv, name);
                let op = self.operand(args);
                let wb = self.wide_of(op, name);
                let k = self.offset(args, name);
                if k < wb {
                    self.report(format!(
                        "`{name}` in `{}` subtracts a class `<{wb}pp` value under a \
                         `{k}p²` offset; the offset must cover the subtrahend's class",
                        self.fn_name
                    ));
                }
                self.check_cap(Magnitude::Wide(wa + k), name)
            }
            "wide_nonresidue2" => {
                let wa = self.wide_of(recv, name);
                let k = self.offset(args, name);
                if k < wa {
                    self.report(format!(
                        "`wide_nonresidue2` in `{}` maps a class `<{wa}pp` value under a \
                         `{k}p²` offset; ξ's real part subtracts the full class, so the \
                         offset must cover it",
                        self.fn_name
                    ));
                }
                self.check_cap(Magnitude::Wide(wa + k), name)
            }
            "montgomery_reduce" | "montgomery_reduce2" => {
                self.wide_of(recv, name);
                Magnitude::Narrow(1)
            }
            _ => {
                if let Some(c) = self.contracts.get(name).copied() {
                    let limit = self.narrow_of(c.input, name);
                    let check = |s: &mut Self, m: Magnitude| {
                        let n = s.narrow_of(m, name);
                        if n > limit {
                            s.report(format!(
                                "class `<{n}p` operand exceeds `{name}`'s declared input \
                                 class `{}` in `{}`",
                                c.input, s.fn_name
                            ));
                        }
                    };
                    check(self, recv);
                    for a in args {
                        if int_literal(a).is_none() {
                            let m = self.eval(a);
                            check(self, m);
                        }
                    }
                    c.output
                } else {
                    // Eager or unknown: only canonical values may flow in.
                    let check = |s: &mut Self, m: Magnitude| {
                        if m != Magnitude::Narrow(1) {
                            s.report(format!(
                                "unreduced value (class `{m}`) escapes into eager or \
                                 unknown `{name}` in `{}`; reduce it first or declare a \
                                 contract for `{name}`",
                                s.fn_name
                            ));
                        }
                    };
                    check(self, recv);
                    for a in args {
                        if int_literal(a).is_none() {
                            let m = self.eval(a);
                            check(self, m);
                        }
                    }
                    Magnitude::Narrow(1)
                }
            }
        }
    }
}

/// Splits a (scrubbed, brace-stripped) body on top-level `;`, keeping
/// each statement's starting line offset within the body.
fn split_statements(body: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = body.chars().collect();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut line = 0usize;
    let mut stmt_line = 0usize;
    let mut seen_content = false;
    for (i, &c) in chars.iter().enumerate() {
        if c == '\n' {
            line += 1;
        }
        if !seen_content && !c.is_whitespace() {
            seen_content = true;
            stmt_line = line;
        }
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ';' if depth == 0 => {
                out.push((stmt_line, chars[start..i].iter().collect()));
                start = i + 1;
                seen_content = false;
            }
            _ => {}
        }
    }
    if start < chars.len() {
        out.push((stmt_line, chars[start..].iter().collect()));
    }
    out
}

/// True for macro statements (`debug_assert!(..)`) — no field values
/// are produced, and their internals are not part of the value chain.
fn is_macro_stmt(t: &str) -> bool {
    let head: String = t.chars().take_while(|c| is_ident_char(*c)).collect();
    !head.is_empty() && t[head.len()..].trim_start().starts_with('!')
}

/// Position of the first top-level `=` that is an assignment (not part
/// of `==`, `<=`, `>=`, `=>`).
fn top_level_eq(text: &str) -> Option<usize> {
    let chars: Vec<char> = text.chars().collect();
    let mut depth = 0i32;
    for (i, &c) in chars.iter().enumerate() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            '=' if depth == 0 => {
                let prev = i.checked_sub(1).map(|j| chars[j]);
                let next = chars.get(i + 1);
                if next != Some(&'=') && prev != Some('=') && prev != Some('<') && prev != Some('>')
                {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// True for type-literal heads (`Self`, `Fp2Wide { .. }`).
fn is_type_name(name: &str) -> bool {
    name == "Self" || name.chars().next().is_some_and(char::is_uppercase)
}

/// Parses a plain unsigned integer literal (with `_` separators).
fn int_literal(text: &str) -> Option<u64> {
    let t: String = text.trim().replace('_', "");
    if t.is_empty() || !t.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    t.parse().ok()
}

fn match_paren(chars: &[char], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn match_brace(chars: &[char], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser;

    /// The BLS12-381 base field invocation: 381 bits over 6 limbs,
    /// three headroom bits → caps 8 / 64.
    const FX_FP: &str = "montgomery_field!(Tf, 6, [0xb9fe_ffff_ffff_aaab, \
                         0x1eab_fffe_b153_ffff, 0x6730_d2a0_f6b0_f624, 0x6477_4b84_f385_12bf, \
                         0x4b1b_a7b6_434b_acd7, 0x1a01_11ea_397f_e69a]);\n";

    fn run(src: &str) -> Vec<Finding> {
        let full = format!("{FX_FP}{src}");
        let files = parser::parse_files(&[("range_t.rs".to_owned(), full)]);
        analyze(&files)
    }

    #[test]
    fn caps_derive_from_the_invocation() {
        let files = parser::parse_files(&[("caps.rs".to_owned(), FX_FP.to_owned())]);
        let scope: Vec<&ParsedFile> = files.iter().collect();
        let caps = scan_field_caps(&scope);
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].name, "Tf");
        assert_eq!(caps[0].narrow, 8);
        assert_eq!(
            caps[0].wide, 64,
            "64·p² + p·2^384 < 2^768 holds for BLS12-381"
        );
    }

    #[test]
    fn thin_modulus_gets_thin_caps() {
        // BLS12-381's Fr: 255 bits over 4 limbs, one headroom bit.
        let src = "montgomery_field!(Tr, 4, [0xffff_ffff_0000_0001, 0x53bd_a402_fffe_5bfe, \
                   0x3339_d808_09a1_d805, 0x73ed_a753_299d_7d48]);\n";
        let files = parser::parse_files(&[("caps.rs".to_owned(), src.to_owned())]);
        let scope: Vec<&ParsedFile> = files.iter().collect();
        let caps = scan_field_caps(&scope);
        assert_eq!(caps[0].narrow, 2);
        assert_eq!(
            caps[0].wide, 2,
            "4·r² + r·2^256 overflows 512 bits, 2·r² fits"
        );
    }

    #[test]
    fn clean_annotated_chain_passes() {
        let src = "impl Tf {\n    // range: <p\n    pub fn lazy_mul(&self, other: &Self) -> Self {\n        \
                   let w = self.mul_unreduced(other);\n        w.montgomery_reduce()\n    }\n}\n";
        let findings = run(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn overflowing_chain_fires() {
        let src = "impl Tf {\n    // range: <p\n    pub fn hot(&self, other: &Self) -> Self {\n        \
                   let a = self.add_unreduced(other);\n        let b = a.add_unreduced(&a);\n        \
                   let c = b.add_unreduced(&b);\n        let d = c.add_unreduced(&c);\n        \
                   d.reduce()\n    }\n}\n";
        let findings = run(src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("exceeding `Tf`'s narrow cap of 8p")),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_annotation_fires() {
        let src = "impl Tf {\n    pub fn sneaky(&self, other: &Self) -> Self {\n        \
                   self.add_unreduced(other).reduce()\n    }\n}\n";
        let findings = run(src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("declares no `// range:` contract")),
            "{findings:?}"
        );
    }

    #[test]
    fn stale_annotation_fires() {
        let src = "impl Tf {\n    // range: <p -> <3p\n    pub fn drifted(&self, other: &Self) -> Self {\n        \
                   self.add_unreduced(other)\n    }\n}\n";
        let findings = run(src);
        assert!(
            findings.iter().any(|f| f.message.contains(
                "stale contract on `drifted`: declared output `<3p` but the body computes `<2p`"
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn offset_must_cover_the_subtrahend() {
        let src = "impl Tf {\n    // range: <2p -> <8pp\n    pub fn shaved(&self, other: &Self) -> TfWide {\n        \
                   let v = self.mul_unreduced(other);\n        let w = self.mul_unreduced(other);\n        \
                   v.wide_sub_offset(&w, 2)\n    }\n}\n";
        let findings = run(src);
        assert!(
            findings.iter().any(|f| f
                .message
                .contains("the offset must cover the subtrahend's class")),
            "{findings:?}"
        );
        // Classes still flow: v + k = 6, declared 8 → also stale.
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("stale contract")),
            "{findings:?}"
        );
    }

    #[test]
    fn unreduced_value_escaping_into_eager_ops_fires() {
        let src = "impl Tf {\n    // range: <p\n    pub fn leaky(&self, other: &Self) -> Self {\n        \
                   let a = self.add_unreduced(other);\n        a.mul(other)\n    }\n}\n";
        let findings = run(src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("escapes into eager or unknown `mul`")),
            "{findings:?}"
        );
    }

    #[test]
    fn symbolic_transfer_tracks_the_internal_offset() {
        // mul_unreduced2 at canonical inputs: max(1·1 + 4, 4·1·1) = 5.
        let src = "impl Tf2 {\n    // range: <p -> <5pp\n    pub fn cross(&self, other: &Self) -> Tf2Wide {\n        \
                   self.mul_unreduced2(other)\n    }\n}\n";
        let findings = run(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn control_flow_in_annotated_bodies_fires() {
        let src = "impl Tf {\n    // range: <p\n    pub fn forked(&self, other: &Self) -> Self {\n        \
                   let a = self.add_unreduced(other);\n        \
                   if a.is_zero() { return *self; }\n        a.reduce()\n    }\n}\n";
        let findings = run(src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("outside the magnitude model")),
            "{findings:?}"
        );
    }

    #[test]
    fn conflicting_contracts_fire() {
        let src =
            "impl Tf {\n    // range: <p -> <2p\n    pub fn widen(&self, o: &Self) -> Self { \
                   self.add_unreduced(o) }\n}\nimpl TfB {\n    // range: <p -> <3p\n    \
                   pub fn widen(&self, o: &Self) -> Self { self.sub_unreduced(o) }\n}\n";
        let findings = run(src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("call sites resolve contracts by name")),
            "{findings:?}"
        );
    }

    #[test]
    fn justified_suppression_silences_and_bare_does_not() {
        let ok = "impl Tf {\n    pub fn audited(&self, other: &Self) -> Self {\n        \
                  // range-ok: chain peaks at class 2, audited in review\n        \
                  self.add_unreduced(other).reduce()\n    }\n}\n";
        let findings = run(ok);
        assert!(findings.is_empty(), "{findings:?}");
        let bare = "impl Tf {\n    pub fn waved(&self, other: &Self) -> Self {\n        \
                    // range-ok:\n        self.add_unreduced(other).reduce()\n    }\n}\n";
        let findings = run(bare);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("gives no reason"));
    }

    #[test]
    fn test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn probe(a: &Tf, b: &Tf) -> Tf {\n        \
                   a.add_unreduced(b).reduce()\n    }\n}\n";
        let findings = run(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn malformed_contract_is_reported() {
        let src = "impl Tf {\n    // range: <2q\n    pub fn typo(&self, o: &Self) -> Self { \
                   self.add_unreduced(o) }\n}\n";
        let findings = run(src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("unparseable magnitude contract")),
            "{findings:?}"
        );
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let src =
            "fn fold(v: &[u64]) -> u64 { v.iter().copied().reduce(|a, b| a | b).unwrap_or(0) }\n";
        let files = parser::parse_files(&[("crates/core/src/x.rs".to_owned(), src.to_owned())]);
        assert!(
            analyze(&files).is_empty(),
            "iterator reduce must not leak findings"
        );
    }

    #[test]
    fn mul_unreduced_rejects_wide_operands() {
        let src = "impl Tf {\n    // range: <p -> <pp\n    pub fn mixed(&self, o: &Self) -> TfWide {\n        \
                   let w = self.mul_unreduced(o);\n        \
                   w.mul_unreduced(o)\n    }\n}\n";
        let findings = run(src);
        assert!(
            findings.iter().any(|f| f
                .message
                .contains("wide accumulator passed to single-width `mul_unreduced`")),
            "{findings:?}"
        );
    }
}
