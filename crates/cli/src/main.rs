//! `mpcbf` — command-line front end for the filter library.
//!
//! ```text
//! mpcbf build  --out f.mpcbf --items 100000 [--memory-bits 4000000]
//!              [--hashes 3] [--accesses 1] [--kind mpcbf|cbf] [--seed 7]
//!              [--input keys.txt]          # default: stdin, one key/line
//! mpcbf query  --filter f.mpcbf [--input keys.txt]   # key<TAB>true|false
//! mpcbf insert --filter f.mpcbf [--input keys.txt]   # updates in place
//! mpcbf remove --filter f.mpcbf [--input keys.txt]
//! mpcbf stats  --filter f.mpcbf
//! mpcbf size   --items 1000000 --fpr 0.001 [--hashes 3] [--accesses 1]
//! mpcbf recover --dir d/ [--shards P] [--elastic] [--input keys.txt]  # durable home
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;

mod commands;
mod opts;

use opts::{CliError, Opts};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", opts::USAGE);
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    if command == "--help" || command == "-h" || command == "help" {
        println!("{}", opts::USAGE);
        return Ok(());
    }
    let opts = Opts::parse(rest)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match command.as_str() {
        "build" => commands::build(&opts, &mut read_keys(&opts)?),
        "query" => commands::query(&opts, &mut read_keys(&opts)?, &mut out),
        "insert" => commands::update(&opts, &mut read_keys(&opts)?, true),
        "remove" => commands::update(&opts, &mut read_keys(&opts)?, false),
        "stats" => commands::stats(&opts, &mut out),
        "recover" => {
            // Keys are only streamed in when --input was given; plain
            // recovery must not block reading stdin.
            if opts.input.is_some() {
                commands::recover(&opts, Some(&mut read_keys(&opts)?), &mut out)
            } else {
                commands::recover(&opts, None, &mut out)
            }
        }
        "replay" => commands::replay(&opts, &mut out),
        "serve" => commands::serve(&opts, &mut out),
        "size" => commands::size(&opts, &mut out),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Opens the key stream: `--input FILE` or stdin.
fn read_keys(opts: &Opts) -> Result<Box<dyn Iterator<Item = Result<String, CliError>>>, CliError> {
    let reader: Box<dyn BufRead> = match &opts.input {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path)
                .map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    Ok(Box::new(reader.lines().map(|l| {
        l.map_err(|e| CliError::Runtime(format!("read error: {e}")))
    })))
}

/// Flushes best-effort on exit paths that print a lot.
#[allow(dead_code)]
fn flush(out: &mut impl Write) {
    let _ = out.flush();
}
