//! Command-line arguments shared by the `gate` and `probe` binaries.

/// Seconds one run measures when `--seconds` is absent; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

/// Parsed arguments. The benchmark contract passes `--workload`,
/// `--seed`, `--seconds` and `--trace`; the rest serve `run.sh`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `None`: run the full set (every workload, untraced then traced).
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    /// `--trace 1`: the per-layer run.
    pub trace: bool,
    /// Set up one workload, run its first verified pass, print the peak
    /// RSS and exit: the child the parent times for `setup_s`.
    pub setup_only: bool,
    /// One verified pass per workload, no timing; non-zero exit on any
    /// mismatch with the sequential oracle.
    pub check: bool,
    /// One 0.6 s round, exactness only, no files written.
    pub smoke: bool,
    /// Full sets to run and compare against the bounds.
    pub repeat: u32,
}

impl Args {
    /// # Errors
    ///
    /// An unknown flag, a missing value or an unparsable number.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self {
            workload: None,
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
            setup_only: false,
            check: false,
            smoke: false,
            repeat: 1,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
                v.parse().map_err(|_| format!("{flag}: `{v}` is not a valid number"))
            }
            match flag.as_str() {
                "--workload" => out.workload = Some(value("a workload name")?),
                "--seed" => out.seed = number(&flag, value("a seed")?)?,
                "--seconds" => out.seconds = number(&flag, value("a duration")?)?,
                "--trace" => out.trace = number::<u8>(&flag, value("0 or 1")?)? != 0,
                "--repeat" => out.repeat = number(&flag, value("a count")?)?,
                "--setup-only" => out.setup_only = true,
                "--check" => out.check = true,
                "--smoke" => out.smoke = true,
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if out.seconds == 0 || out.repeat == 0 {
            return Err("--seconds and --repeat must be positive".to_string());
        }
        Ok(out)
    }
}
