//! Answers as the program reports them, and the checks against what the
//! generator knows to be true.

use crate::gen::{Expect, GenomicsModel, Request};
use crate::json::Json;
use crate::proc::End;
use std::collections::BTreeSet;

/// An answer, normalized from `pde` stdout, a `pde serve` response or a
/// replay child's summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// `solve`: a solution exists, or not.
    Solve(bool),
    /// `certain` of a non-Boolean query: the rows (`a, b`), or `None` when
    /// no solution exists.
    Rows(Option<BTreeSet<String>>),
    /// `certain` of a Boolean query.
    Bool(bool),
    /// `insert`: facts newly inserted.
    Inserted(usize),
    /// `snapshot` (or any other acknowledged request without a payload).
    Done,
}

/// Why an operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The child ended in a way no answer explains (signal, odd exit code,
    /// deadline, EOF from a dead server).
    Ended(String),
    /// An `"ok":false` reply.
    Refused(String),
    /// `undecided` although no budget was set.
    Undecided,
    /// An answer the oracle disagrees with.
    Wrong(String),
}

impl Failure {
    /// Is this a wrong answer (as opposed to no answer)?
    pub fn is_wrong(&self) -> bool {
        matches!(self, Failure::Wrong(_))
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Ended(s) => write!(f, "ended: {s}"),
            Failure::Refused(s) => write!(f, "refused: {s}"),
            Failure::Undecided => write!(f, "undecided without a budget"),
            Failure::Wrong(s) => write!(f, "wrong answer: {s}"),
        }
    }
}

/// Read the answer of a `pde solve` / `pde certain` child from its exit
/// and stdout (the CLI's documented text format and exit codes).
pub fn cli_answer(kind: &str, end: End, stdout: &str) -> Result<Answer, Failure> {
    let code = match end {
        End::Code(c) => c,
        other => return Err(Failure::Ended(other.describe())),
    };
    if code == 3 {
        return Err(Failure::Undecided);
    }
    let has = |s: &str| stdout.lines().any(|l| l.trim_end() == s);
    match (kind, code) {
        ("solve", 0) if has("result:   solution exists") => Ok(Answer::Solve(true)),
        ("solve", 1) if has("result:   no solution") => Ok(Answer::Solve(false)),
        ("certain", 0 | 1) => {
            if has("no solutions: every tuple is vacuously certain") && code == 0 {
                return Ok(Answer::Rows(None));
            }
            if let Some(line) = stdout.lines().find(|l| l.starts_with("certain = ")) {
                let value = line.trim_end() == "certain = true";
                return if value == (code == 0) {
                    Ok(Answer::Bool(value))
                } else {
                    Err(Failure::Ended(format!("exit {code} contradicts '{line}'")))
                };
            }
            if code != 0 || !stdout.contains("certain answers: ") {
                return Err(Failure::Ended(format!("exit {code} without an answer")));
            }
            let rows = stdout
                .lines()
                .filter_map(|l| l.strip_prefix("  (").and_then(|r| r.strip_suffix(')')))
                .map(str::to_owned)
                .collect();
            Ok(Answer::Rows(Some(rows)))
        }
        _ => Err(Failure::Ended(format!("exit {code}"))),
    }
}

/// Check an answer against a batch expectation.
pub fn check(expect: &Expect, answer: &Answer) -> Result<(), Failure> {
    let ok = match (expect, answer) {
        (Expect::Solve(e), Answer::Solve(a)) => e == a,
        (Expect::Bool(e), Answer::Bool(a)) => e == a,
        // Without solutions every query is vacuously certain.
        (Expect::Bool(e), Answer::Rows(None)) => *e,
        (Expect::Rows(e), Answer::Rows(a)) => e == a,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(Failure::Wrong(format!(
            "expected {}, got {}",
            describe_expect(expect),
            describe_answer(answer)
        )))
    }
}

fn describe_expect(e: &Expect) -> String {
    match e {
        Expect::Solve(b) => format!("solve={b}"),
        Expect::Bool(b) => format!("certain={b}"),
        Expect::Rows(None) => "no solution".into(),
        Expect::Rows(Some(r)) => format!("{} rows", r.len()),
    }
}

fn describe_answer(a: &Answer) -> String {
    match a {
        Answer::Solve(b) => format!("solve={b}"),
        Answer::Bool(b) => format!("certain={b}"),
        Answer::Rows(None) => "no solution".into(),
        Answer::Rows(Some(r)) => format!("{} rows", r.len()),
        Answer::Inserted(n) => format!("inserted {n}"),
        Answer::Done => "done".into(),
    }
}

/// Read the answer from a `pde serve` response line.
pub fn serve_answer(req: &Request, line: &str) -> Result<Answer, Failure> {
    let v = Json::parse(line).map_err(|e| Failure::Ended(format!("bad response: {e}")))?;
    if v.get("ok").and_then(Json::bool) != Some(true) {
        let msg = v
            .get("error")
            .and_then(Json::str)
            .unwrap_or("no error message");
        return Err(Failure::Refused(msg.to_owned()));
    }
    match req {
        Request::Solve => match v.get("result").and_then(Json::str) {
            Some("yes") => Ok(Answer::Solve(true)),
            Some("no") => Ok(Answer::Solve(false)),
            Some("undecided") => Err(Failure::Undecided),
            _ => Err(Failure::Ended("solve response without a result".into())),
        },
        Request::Certain(_) => {
            if v.get("solution_exists").and_then(Json::bool) == Some(false) {
                return Ok(Answer::Rows(None));
            }
            if let Some(b) = v.get("certain").and_then(Json::bool) {
                return Ok(Answer::Bool(b));
            }
            let rows = v
                .get("answers")
                .and_then(Json::arr)
                .ok_or_else(|| Failure::Ended("certain response without answers".into()))?;
            Ok(Answer::Rows(Some(
                rows.iter()
                    .map(|r| {
                        r.arr()
                            .unwrap_or(&[])
                            .iter()
                            .map(|x| x.str().unwrap_or("?"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    })
                    .collect(),
            )))
        }
        Request::Insert(..) => v
            .get("inserted")
            .and_then(Json::num)
            .map(|n| Answer::Inserted(n as usize))
            .ok_or_else(|| Failure::Ended("insert response without a count".into())),
        Request::Snapshot => Ok(Answer::Done),
    }
}

/// Check a serve answer against the model of the base. An insert whose
/// acknowledgment was lost to a dead server may or may not be durable, so
/// `pending` facts are accepted either way.
pub fn check_serve(
    req: &Request,
    answer: &Answer,
    model: &GenomicsModel,
    pending: Option<&GenomicsModel>,
) -> Result<(), Failure> {
    let ok = match (req, answer) {
        (Request::Solve, Answer::Solve(a)) => *a,
        (Request::Certain(q), Answer::Rows(Some(rows))) => {
            *rows == model.certain(q) || pending.is_some_and(|p| *rows == p.certain(q))
        }
        (Request::Insert(acc, org, gos), Answer::Inserted(n)) => {
            let protein = usize::from(!model.proteins.contains(&(acc.clone(), org.clone())));
            let gos: std::collections::BTreeSet<&String> = gos.iter().collect();
            let annotations = gos
                .into_iter()
                .filter(|g| !model.annotations.contains(&(acc.clone(), (*g).clone())))
                .count();
            *n == protein + annotations
        }
        (Request::Snapshot, Answer::Done) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(Failure::Wrong(format!(
            "{} answered {}",
            req.kind(),
            describe_answer(answer)
        )))
    }
}
