//! Argument handling for `bw`, the workspace's one binary: the paper's
//! exhibits (`bw table3` … `bw ablations`) are commands of it like the
//! others. It declares two tables — its [`Command`]s and its [`Flag`]s — and
//! parsing, validation and the usage text all read them: a flag is accepted
//! exactly where the usage lists it, a malformed value is an error naming
//! flag and value, and no synopsis is written out by hand.

use std::process::ExitCode;
use std::str::FromStr;

/// One `--flag`.
pub struct Flag {
    /// With its dashes: `--threads`.
    pub name: &'static str,
    /// How the usage writes its value (`N`, `sim|real`); `None` = a switch.
    pub metavar: Option<&'static str>,
    /// The commands that accept it. One name may have a row per meaning
    /// (`bw run --threads N`, `bw fuzz --threads T1,T2,..`).
    pub commands: &'static [&'static str],
    /// What it does, for the usage.
    pub help: &'static str,
}

/// One subcommand.
pub struct Command {
    /// Its name on the command line.
    pub name: &'static str,
    /// Its positional argument as the usage writes it (`<file>`,
    /// `[injections]`); `None` = it takes none.
    pub operand: Option<&'static str>,
    /// What it does, for the usage.
    pub summary: &'static str,
}

/// A row of a flag table.
pub const fn flag(
    name: &'static str,
    metavar: Option<&'static str>,
    commands: &'static [&'static str],
    help: &'static str,
) -> Flag {
    Flag { name, metavar, commands, help }
}

/// A row of a command table.
pub const fn command(
    name: &'static str,
    operand: Option<&'static str>,
    summary: &'static str,
) -> Command {
    Command { name, operand, summary }
}

/// What precedes a command's name in the usage and in an error.
const PREFIX: &str = "bw ";

/// `bw`'s command line.
pub struct Cli {
    /// Its commands, in usage order.
    pub commands: &'static [Command],
    /// Every flag of every command, in synopsis order.
    pub flags: &'static [Flag],
    /// Free text under the flag list.
    pub notes: &'static str,
}

/// Appends `words` to `out` as lines of at most 78 columns: the first
/// continues `head`, the others start after `indent` spaces.
fn wrap<'a>(out: &mut String, head: &str, indent: usize, words: impl Iterator<Item = &'a str>) {
    let mut line = head.to_string();
    for word in words {
        if line.len() + 1 + word.len() > 78 && line.len() > indent {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(indent);
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

impl Cli {
    /// The usage text: per command a synopsis (its operand, then each flag
    /// it accepts as `[--flag VALUE]`) over its summary, then — after a
    /// blank line — what every flag does, then the notes.
    pub fn usage(&self) -> String {
        let mut out = String::from("usage:\n");
        let width = self.commands.iter().map(|c| c.name.len()).max().unwrap_or(0);
        for c in self.commands {
            let head = format!("  {PREFIX}{:width$}", c.name);
            let flags = self.flags.iter().filter(|f| f.commands.contains(&c.name));
            let flags = flags.map(|f| match f.metavar {
                Some(metavar) => format!("[{} {metavar}]", f.name),
                None => format!("[{}]", f.name),
            });
            let operand = c.operand.map(String::from);
            let synopsis: Vec<String> = operand.into_iter().chain(flags).collect();
            wrap(&mut out, &head, head.len(), synopsis.iter().map(String::as_str));
            wrap(&mut out, &" ".repeat(head.len() + 4), head.len() + 4, c.summary.split(' '));
        }
        out.push('\n');
        for f in self.flags {
            out.push_str(format!("  {} {}", f.name, f.metavar.unwrap_or_default()).trim_end());
            out.push('\n');
            wrap(&mut out, "       ", 7, f.help.split(' '));
        }
        out.push('\n');
        out.push_str(self.notes);
        out.truncate(out.trim_end().len());
        out
    }

    /// Parses `argv`, the arguments after `command`, in one scan: every
    /// `--flag` must be in the table for `command` and a value flag must
    /// have its value; what is left is the operand, at most one. The error
    /// names the argument that cannot be used.
    pub fn parse(&'static self, command: &str, argv: &[String]) -> Result<Args, String> {
        let Some(command) = self.commands.iter().find(|c| c.name == command) else {
            return Err(format!("unknown command `{command}`\n{}", self.usage()));
        };
        let mut args = Args { cli: self, command, operand: None, flags: Vec::new() };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if arg.starts_with("--") {
                let accepted = |f: &&Flag| f.name == arg && f.commands.contains(&command.name);
                let Some(flag) = self.flags.iter().find(accepted) else {
                    let name = format!("{PREFIX}{}", command.name);
                    return Err(format!("unknown flag `{arg}` for `{name}`\n{}", self.usage()));
                };
                let value = match flag.metavar {
                    Some(_) => argv.next().ok_or(format!("flag `{arg}` needs a value"))?.clone(),
                    None => String::new(),
                };
                args.flags.push((flag.name, value));
            } else if command.operand.is_some() && args.operand.is_none() {
                args.operand = Some(arg.clone());
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        Ok(args)
    }

    /// The binary's whole `main`: `--help` (or `-h`, or the command `help`)
    /// anywhere prints the usage; otherwise the arguments after the first,
    /// which names the command, are parsed and handed to `body`, whose
    /// error is printed and becomes exit code 1.
    pub fn main(&'static self, body: impl FnOnce(&Args) -> Result<(), String>) -> ExitCode {
        let mut argv: Vec<String> = std::env::args().skip(1).collect();
        let help = argv.iter().any(|a| a == "--help" || a == "-h");
        if argv.is_empty() {
            eprintln!("{}", self.usage());
            return ExitCode::FAILURE;
        }
        let command = argv.remove(0);
        if help || command == "help" {
            emit(&format!("{}\n", self.usage()));
            return ExitCode::SUCCESS;
        }
        match self.parse(&command, &argv).and_then(|args| body(&args)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Writes a rendered report to stdout. A closed pipe (`bw top … | head`,
/// `… | grep -q`) is a normal way to consume these, so EPIPE is a clean
/// exit, not a panic like `print!` would give.
pub fn emit(s: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(s.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

/// One parsed command line. Every getter's error names the flag (or the
/// operand) and the text that is not what it expects: a malformed value is
/// never a silent default.
pub struct Args {
    cli: &'static Cli,
    command: &'static Command,
    operand: Option<String>,
    /// `(name, value)` in command-line order; a switch's value is empty.
    flags: Vec<(&'static str, String)>,
}

fn checked<T>(what: &str, raw: &str, expected: &str, parsed: Option<T>) -> Result<T, String> {
    parsed.ok_or_else(|| format!("invalid {what} `{raw}` (expected {expected})"))
}

fn number<T: FromStr>(what: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    raw.map_or(Ok(default), |s| checked(what, s, "a number", s.parse().ok()))
}

impl Args {
    /// The command's name.
    pub fn command(&self) -> &'static str {
        self.command.name
    }

    /// The value of flag `name` as given (empty for a switch); the first
    /// one if it is repeated.
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(self.cli.flags.iter().any(|f| f.name == name), "{name} is not in the table");
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, value)| value.as_str())
    }

    /// Whether flag `name` is given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The operand of a command that cannot do without it.
    pub fn operand(&self) -> Result<&str, String> {
        let what = self.command.operand.unwrap_or_default();
        let missing = || format!("missing {what} argument\n{}", self.cli.usage());
        self.operand.as_deref().ok_or_else(missing)
    }

    /// The operand as a number, `default` when it is left out.
    pub fn operand_count<T: FromStr>(&self, default: T) -> Result<T, String> {
        let what = self.command.operand.unwrap_or_default().trim_matches(['[', ']']);
        number(what, self.operand.as_deref(), default)
    }

    /// Numeric flag `name`, `default` when it is not given.
    pub fn count<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        number(name, self.get(name), default)
    }

    /// Numeric flag `name`, which must be positive when given.
    pub fn positive<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd + Default,
    {
        let parse = |s: &str| s.parse().ok().filter(|n| *n > T::default());
        self.get(name).map(|s| checked(name, s, "a positive count", parse(s))).transpose()
    }

    /// Seed flag `name`. Seeds are reported (and repro files named) in hex,
    /// so both `26` and `0x1a` are accepted.
    pub fn seed(&self, name: &str, default: u64) -> Result<u64, String> {
        let Some(s) = self.get(name) else { return Ok(default) };
        let parsed = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        };
        checked(name, s, "a decimal or 0x-hex number", parsed)
    }

    /// Flag `name` as one of `options` — `(spelling, meaning)`, the spellings
    /// being the flag's metavar `a|b|c`; the first when it is not given.
    pub fn choice<T: Copy>(&self, name: &str, options: &[(&str, T)]) -> Result<T, String> {
        let spellings = options.iter().map(|(s, _)| *s).collect::<Vec<_>>().join("|");
        debug_assert!(
            self.cli.flags.iter().any(|f| f.name == name && f.metavar == Some(&spellings)),
            "the usage does not write {name} as {spellings}"
        );
        let Some(s) = self.get(name) else { return Ok(options[0].1) };
        checked(name, s, &spellings, options.iter().find(|(o, _)| *o == s).map(|(_, t)| *t))
    }

    /// Flag `name` as a comma-separated list of numbers, if given.
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String> {
        let parse = |s: &str| s.split(',').map(|t| t.trim().parse().ok()).collect();
        self.get(name).map(|s| checked(name, s, "comma-separated numbers", parse(s))).transpose()
    }
}
