//! Output checks: response scanning and coloring verification.

use crate::json::{self, Val};
use gcol_graph::{verify_coloring, Csr};
use std::hash::{Hash, Hasher};

/// A response line split into its small header and, when present, the
/// raw text of its `assignment` array. The array is hashed where the
/// line is read and decoded only when checked, so the client spends
/// little CPU inside the timed phase.
pub struct Response {
    pub header: Val,
    pub assignment: Option<String>,
}

impl Response {
    pub fn parse(line: &str) -> Result<Self, String> {
        const KEY: &str = "\"assignment\":[";
        let Some(start) = line.find(KEY) else {
            return Ok(Self {
                header: json::parse(line)?,
                assignment: None,
            });
        };
        let body = start + KEY.len();
        let end = body + line[body..].find(']').ok_or("unterminated assignment")?;
        let (mut head_end, mut tail_start) = (start, end + 1);
        if line[tail_start..].starts_with(',') {
            tail_start += 1;
        } else if line[..head_end].ends_with(',') {
            head_end -= 1;
        }
        let header = format!("{}{}", &line[..head_end], &line[tail_start..]);
        Ok(Self {
            header: json::parse(&header)?,
            assignment: Some(line[body..end].to_string()),
        })
    }

    pub fn ok(&self) -> bool {
        self.header.get("ok").and_then(Val::bool) == Some(true)
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        self.header.get(key).and_then(Val::num)
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.header.get(key).and_then(Val::str)
    }

    /// A one-line reason for a failed response.
    pub fn error(&self) -> String {
        format!(
            "{}: {}",
            self.text("error").unwrap_or("?"),
            self.text("detail").unwrap_or("")
        )
    }
}

pub fn hash_text(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

pub fn decode_assignment(text: &str) -> Result<Vec<u32>, String> {
    text.split(',')
        .map(|t| {
            t.trim()
                .parse::<u32>()
                .map_err(|e| format!("bad color {t:?}: {e}"))
        })
        .collect()
}

/// Number of distinct colors, counted without the library's helpers.
pub fn distinct_colors(colors: &[u32]) -> usize {
    let mut seen = vec![false; colors.iter().copied().max().unwrap_or(0) as usize + 1];
    colors
        .iter()
        .filter(|&&c| !std::mem::replace(&mut seen[c as usize], true))
        .count()
}

/// Why a coloring failed its check.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// Not a proper coloring of the graph: the run fails.
    Improper(String),
    /// Proper, but the reported color count is not the number of
    /// distinct colors. Reported as `core.miscounted_share`; the job
    /// still counts as completed, since its coloring is valid.
    Miscounted { claimed: usize, used: usize },
    /// No coloring came back: the job counts as failed.
    Missing(String),
}

impl CheckError {
    pub fn is_improper(&self) -> bool {
        matches!(self, CheckError::Improper(_))
    }

    /// Whether the job counts as failed.
    pub fn fails_job(&self) -> bool {
        !matches!(self, CheckError::Miscounted { .. })
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Improper(why) => write!(f, "improper coloring: {why}"),
            CheckError::Miscounted { claimed, used } => {
                write!(f, "reports {claimed} colors but uses {used}")
            }
            CheckError::Missing(why) => write!(f, "no coloring: {why}"),
        }
    }
}

/// Checks that `colors` is a proper coloring of `g` that uses exactly
/// `claimed` colors.
pub fn check_coloring(g: &Csr, colors: &[u32], claimed: usize) -> Result<(), CheckError> {
    verify_coloring(g, colors).map_err(|v| CheckError::Improper(v.to_string()))?;
    let used = distinct_colors(colors);
    if used != claimed {
        return Err(CheckError::Miscounted { claimed, used });
    }
    Ok(())
}

/// Feeds the checker corrupted colorings of a small graph and fails
/// unless it rejects every one. Runs before every workload, so a checker
/// that stopped checking cannot report a clean run.
pub fn self_test() -> Result<(), String> {
    let g = gcol_graph::gen::grid2d(12, 12, gcol_graph::gen::StencilKind::FivePoint);
    let good = gcol_core::seq::greedy_seq(&g, gcol_graph::ordering::Ordering::Natural);
    let k = good.num_colors;
    check_coloring(&g, &good.colors, k)
        .map_err(|e| format!("self-test: clean coloring rejected: {e}"))?;
    let (u, v) = g.edges().next().ok_or("self-test graph has no edges")?;
    let mut clash = good.colors.clone();
    clash[v as usize] = clash[u as usize];
    let mut blank = good.colors.clone();
    blank[0] = 0;
    let short = good.colors[1..].to_vec();
    for (what, colors, claimed, improper) in [
        ("adjacent clash", &clash, k, true),
        ("uncolored vertex", &blank, k, true),
        ("short assignment", &short, k, true),
        ("wrong color count", &good.colors, k + 1, false),
    ] {
        match check_coloring(&g, colors, claimed) {
            Err(e) if e.is_improper() == improper => {}
            _ => {
                return Err(format!(
                    "self-test: checker misjudged a corrupted coloring ({what})"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_rejects_corrupted_colorings() {
        self_test().unwrap();
    }

    #[test]
    fn splits_the_assignment_out_of_a_response() {
        let r = Response::parse(r#"{"assignment":[1,2,1],"colors":2,"id":4,"ok":true}"#).unwrap();
        assert_eq!(r.assignment.as_deref(), Some("1,2,1"));
        assert_eq!(r.num("id"), Some(4.0));
        assert!(r.ok());
        let r = Response::parse(r#"{"id":1,"ok":true,"assignment":[3]}"#).unwrap();
        assert_eq!(
            decode_assignment(r.assignment.as_deref().unwrap()).unwrap(),
            vec![3]
        );
        assert_eq!(distinct_colors(&[1, 2, 2, 3]), 3);
    }
}
