//! The `cbs-audit` command-line gate.
//!
//! ```text
//! cargo run -p cbs-audit -- check [--json] [--root <dir>]
//! ```
//!
//! Exit status: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cbs_audit::report::{findings_json, findings_text};

fn usage() -> ExitCode {
    eprintln!("usage: cbs-audit check [--json] [--root <dir>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("check") {
        return usage();
    }
    let mut json = false;
    let mut root = PathBuf::from(".");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let audit = match cbs_audit::audit_workspace(&root) {
        Ok(audit) => audit,
        Err(e) => {
            eprintln!("cbs-audit: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", findings_json(&audit.findings));
    } else {
        print!("{}", findings_text(&audit.findings));
        if audit.is_clean() {
            println!("cbs-audit: clean");
        } else {
            println!("cbs-audit: {} finding(s)", audit.findings.len());
        }
    }
    if audit.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
