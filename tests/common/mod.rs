//! Readers for the line-oriented JSON artifacts under `results/`, shared
//! by the freshness tests.

/// Extracts `"key": value` from one JSON line (the artifacts are
/// line-oriented: one cell or row object per line, scalar headers and
/// nested sections one per line). The value is cut at the first `,`/`}`
/// outside brackets, so `[a, b]` lists and nested `{…}` objects come
/// back whole; surrounding quotes are stripped.
pub fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start =
        line.find(&pat).unwrap_or_else(|| panic!("missing field {key:?} in: {line}")) + pat.len();
    let rest = &line[start..];
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' if depth > 0 => depth -= 1,
            '}' | ',' if depth == 0 => return rest[..i].trim().trim_matches('"'),
            _ => {}
        }
    }
    rest.trim().trim_matches('"')
}

/// The line of a top-level `"key": …` section.
#[allow(dead_code)]
pub fn section<'a>(json: &'a str, key: &str) -> &'a str {
    json.lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{key}\"")))
        .unwrap_or_else(|| panic!("missing section {key:?}"))
}
