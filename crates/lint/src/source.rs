//! Workspace scanning and the per-file source model the analyses share:
//! lexed tokens with brace depths, `#[cfg(test)]` spans, function spans,
//! and the `// lint: allow(rule, "reason")` suppression grammar.

use std::path::{Path, PathBuf};

use crate::lexer::{self, Comment, Tok, TokKind};

/// One scanned `.rs` file.
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators (stable
    /// across platforms, so reports and baselines are portable).
    pub rel: String,
    /// Raw file text (substring rules, e.g. `MATCHER_VERSION`).
    pub text: String,
    /// Code tokens.
    pub toks: Vec<Tok>,
    /// Brace (`{}`) depth *before* each token.
    pub depth: Vec<u32>,
    /// Comments with line spans.
    pub comments: Vec<Comment>,
    /// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` /
    /// `#[test]` items; findings inside them are skipped.
    pub test_spans: Vec<(u32, u32)>,
    /// Function spans in source order.
    pub funcs: Vec<FuncSpan>,
}

/// One `fn` item: name plus token/line extents of its body.
#[derive(Debug, Clone)]
pub struct FuncSpan {
    /// The function's bare name (no path, no generics).
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range of the parameter list, exclusive of the parens.
    pub params: (usize, usize),
    /// Token range of the body, inclusive of both braces; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and models one file.
    pub fn parse(rel: String, text: String) -> SourceFile {
        let lexed = lexer::lex(&text);
        let depth = brace_depths(&lexed.toks);
        let test_spans = find_test_spans(&lexed.toks);
        let funcs = find_funcs(&lexed.toks);
        SourceFile {
            rel,
            text,
            toks: lexed.toks,
            depth,
            comments: lexed.comments,
            test_spans,
            funcs,
        }
    }

    /// Whether `line` is inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether a `// lint: allow(rule, "reason")` comment sits on `line`,
    /// returning `Some(has_reason)`. The reason must be a non-empty
    /// quoted string (it may itself contain parentheses or commas) and
    /// the closing `)` must follow it for the suppression to count.
    pub fn allow_on_line(&self, line: u32, rule: &str) -> Option<bool> {
        for c in &self.comments {
            if c.start_line != line {
                continue;
            }
            let Some(pos) = c.text.find("lint: allow(") else {
                continue;
            };
            let rest = &c.text[pos + "lint: allow(".len()..];
            // Rule name runs to the separating comma (or, malformed, to
            // the closing paren).
            let named_end = rest
                .find(',')
                .or_else(|| rest.find(')'))
                .unwrap_or(rest.len());
            let named = rest[..named_end].trim();
            if named != rule {
                continue;
            }
            let Some(after_comma) = rest.get(named_end + 1..) else {
                return Some(false);
            };
            let after = after_comma.trim_start();
            let Some(body) = after.strip_prefix('"') else {
                return Some(false);
            };
            let Some(close) = body.find('"') else {
                return Some(false);
            };
            let reason = &body[..close];
            let tail = body[close + 1..].trim_start();
            return Some(!reason.trim().is_empty() && tail.starts_with(')'));
        }
        None
    }

    /// The innermost function whose body contains token `ti`.
    pub fn enclosing_fn(&self, ti: usize) -> Option<&FuncSpan> {
        self.funcs
            .iter()
            .filter(|f| f.body.is_some_and(|(a, b)| a <= ti && ti <= b))
            .min_by_key(|f| {
                let (a, b) = f.body.expect("filtered on body");
                b - a
            })
    }
}

fn brace_depths(toks: &[Tok]) -> Vec<u32> {
    let mut depth = 0u32;
    let mut out = Vec::with_capacity(toks.len());
    for t in toks {
        if t.kind == TokKind::Punct && t.text == "}" {
            depth = depth.saturating_sub(1);
        }
        out.push(depth);
        if t.kind == TokKind::Punct && t.text == "{" {
            depth += 1;
        }
    }
    out
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Finds line spans of items annotated `#[cfg(test)]` or `#[test]`.
fn find_test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_punct(&toks[i], "#") && i + 1 < toks.len() && is_punct(&toks[i + 1], "[") {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut bracket = 1i32;
            let mut attr = Vec::new();
            while j < toks.len() && bracket > 0 {
                if is_punct(&toks[j], "[") {
                    bracket += 1;
                } else if is_punct(&toks[j], "]") {
                    bracket -= 1;
                }
                if bracket > 0 {
                    attr.push(&toks[j]);
                }
                j += 1;
            }
            let is_test_attr = match attr.first() {
                Some(t) if is_ident(t, "test") && attr.len() == 1 => true,
                Some(t) if is_ident(t, "cfg") => attr.iter().any(|t| is_ident(t, "test")),
                _ => false,
            };
            if is_test_attr {
                let start_line = toks[i].line;
                // Skip any further attributes, then span the item: to the
                // matching `}` of its first brace, or to a `;`.
                let mut k = j;
                while k + 1 < toks.len() && is_punct(&toks[k], "#") && is_punct(&toks[k + 1], "[") {
                    let mut b = 1i32;
                    k += 2;
                    while k < toks.len() && b > 0 {
                        if is_punct(&toks[k], "[") {
                            b += 1;
                        } else if is_punct(&toks[k], "]") {
                            b -= 1;
                        }
                        k += 1;
                    }
                }
                let mut end_line = start_line;
                while k < toks.len() {
                    if is_punct(&toks[k], ";") {
                        end_line = toks[k].line;
                        break;
                    }
                    if is_punct(&toks[k], "{") {
                        let mut b = 1i32;
                        k += 1;
                        while k < toks.len() && b > 0 {
                            if is_punct(&toks[k], "{") {
                                b += 1;
                            } else if is_punct(&toks[k], "}") {
                                b -= 1;
                            }
                            if b == 0 {
                                end_line = toks[k].line;
                            }
                            k += 1;
                        }
                        break;
                    }
                    k += 1;
                }
                spans.push((start_line, end_line));
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Finds every `fn` item (free, impl, trait, nested) with its body span.
fn find_funcs(toks: &[Tok]) -> Vec<FuncSpan> {
    let mut funcs = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(&toks[i], "fn") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        // Skip generics between the name and the parameter list.
        let mut j = i + 2;
        if j < toks.len() && is_punct(&toks[j], "<") {
            let mut angle = 1i32;
            j += 1;
            while j < toks.len() && angle > 0 {
                if is_punct(&toks[j], "<") {
                    angle += 1;
                } else if is_punct(&toks[j], ">") {
                    angle -= 1;
                }
                j += 1;
            }
        }
        if j >= toks.len() || !is_punct(&toks[j], "(") {
            i += 1;
            continue;
        }
        let params_start = j + 1;
        let mut paren = 1i32;
        j += 1;
        while j < toks.len() && paren > 0 {
            if is_punct(&toks[j], "(") {
                paren += 1;
            } else if is_punct(&toks[j], ")") {
                paren -= 1;
            }
            j += 1;
        }
        let params_end = j.saturating_sub(1);
        // Scan to the body `{` or a `;` (trait declaration). The return
        // type / where clause sits between; it contains no braces in
        // this codebase's idiom.
        let mut body = None;
        while j < toks.len() {
            if is_punct(&toks[j], ";") {
                break;
            }
            if is_punct(&toks[j], "{") {
                let start = j;
                let mut b = 1i32;
                j += 1;
                while j < toks.len() && b > 0 {
                    if is_punct(&toks[j], "{") {
                        b += 1;
                    } else if is_punct(&toks[j], "}") {
                        b -= 1;
                    }
                    j += 1;
                }
                body = Some((start, j.saturating_sub(1)));
                break;
            }
            j += 1;
        }
        funcs.push(FuncSpan {
            name,
            line,
            params: (params_start, params_end),
            body,
        });
        i += 2; // continue after the name: nested fns are still found
    }
    funcs
}

/// Recursively collects `.rs` files under `dir` (sorted, deterministic),
/// skipping `fixtures` and `target` directories.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Loads the workspace's scan set relative to `root`: `src/`, `tests/`,
/// `examples/`, and every `crates/**/{src,tests}` tree.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for top in ["src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths);
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs = Vec::new();
        collect_crate_dirs(&crates, &mut crate_dirs);
        for dir in crate_dirs {
            for sub in ["src", "tests"] {
                let d = dir.join(sub);
                if d.is_dir() {
                    collect_rs_files(&d, &mut paths);
                }
            }
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::parse(rel, text));
    }
    Ok(files)
}

/// Collects directories under `crates/` that contain a `Cargo.toml`
/// (including nested ones like `crates/compat/rand`), sorted.
pub fn collect_crate_dirs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if !path.is_dir() {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "fixtures" || name == "target" || name.starts_with('.') {
            continue;
        }
        if path.join("Cargo.toml").is_file() {
            out.push(path.clone());
        }
        collect_crate_dirs(&path, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("x.rs".into(), src.into())
    }

    #[test]
    fn cfg_test_spans_cover_their_item() {
        let f = file("fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn tail() {}\n");
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_attr_on_fn_is_covered_too() {
        let f = file("#[test]\nfn check() {\n  x();\n}\nfn live() {}\n");
        assert!(f.in_test_code(3));
        assert!(!f.in_test_code(5));
    }

    #[test]
    fn funcs_found_with_bodies_and_generics() {
        let f = file("impl X { fn a(&self) -> u8 { 1 } }\nfn b<T: Clone>(t: T) {}\nfn decl();");
        let names: Vec<&str> = f.funcs.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "decl"]);
        assert!(f.funcs[0].body.is_some());
        assert!(f.funcs[2].body.is_none());
    }

    #[test]
    fn allow_grammar_requires_rule_and_reason() {
        let f = file(
            "a(); // lint: allow(panic, \"checked above\")\nb(); // lint: allow(panic,)\nc();\n",
        );
        assert_eq!(f.allow_on_line(1, "panic"), Some(true));
        assert_eq!(f.allow_on_line(1, "unsafe"), None);
        assert_eq!(f.allow_on_line(2, "panic"), Some(false));
        assert_eq!(f.allow_on_line(3, "panic"), None);
    }

    #[test]
    fn allow_reason_may_contain_parens_and_commas() {
        let f = file(
            "a(); // lint: allow(panic, \"pos came from position() on this slice\")\n\
             b(); // lint: allow(panic, \"first, then second\")\n\
             c(); // lint: allow(panic, \"\")\n\
             d(); // lint: allow(panic, \"reason\" trailing-junk\n",
        );
        assert_eq!(f.allow_on_line(1, "panic"), Some(true));
        assert_eq!(f.allow_on_line(2, "panic"), Some(true));
        assert_eq!(f.allow_on_line(3, "panic"), Some(false), "empty reason");
        assert_eq!(
            f.allow_on_line(4, "panic"),
            Some(false),
            "missing close paren"
        );
    }
}
