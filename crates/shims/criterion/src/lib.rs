//! Offline shim of the `criterion` API surface this workspace uses.
//!
//! The build environment cannot reach crates.io. This crate keeps the
//! `crates/bench` benchmarks compiling and runnable as smoke benches: it
//! implements `Criterion::benchmark_group`, `BenchmarkGroup` knobs
//! (including `throughput`, reported as time per element),
//! `Bencher::iter`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros. Timing is a single
//! mean-of-N measurement printed to stdout — enough to spot gross
//! regressions, not a statistical harness.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export-compatible opaque value barrier.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Parses CLI arguments (accepted and ignored by the shim).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            elements: None,
            _parent: self,
        }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let n = self.sample_size;
        run_one(&name.into(), n, None, f);
        self
    }
}

/// How much work one iteration does; set with
/// [`BenchmarkGroup::throughput`].
pub enum Throughput {
    /// One iteration processes this many elements; the shim adds the
    /// mean time per element to the report line.
    Elements(u64),
}

/// A named benchmark group with per-group settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    elements: Option<u64>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        let Throughput::Elements(n) = t;
        self.elements = Some(n);
        self
    }

    /// Accepted for API compatibility; the shim ignores the target time.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim ignores warm-up time.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.label), self.sample_size, self.elements, f);
        self
    }

    /// Runs one parameterised benchmark in this group.
    pub fn bench_with_input<F, I>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let label = format!("{}/{}", self.name, id.label);
        run_one(&label, self.sample_size, self.elements, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, samples: usize, elements: Option<u64>, mut f: F) {
    let mut b = Bencher { total: Duration::ZERO, iters: 0, samples };
    f(&mut b);
    let mean = if b.iters == 0 { Duration::ZERO } else { b.total / b.iters as u32 };
    match elements {
        Some(n) if n > 0 => {
            let each = mean.div_f64(n as f64);
            println!("bench {label}: {mean:?}/iter ({each:?}/elem) over {} iters", b.iters);
        }
        _ => println!("bench {label}: {mean:?}/iter over {} iters", b.iters),
    }
}

/// Passed to the benchmark closure; times the measured routine.
pub struct Bencher {
    total: Duration,
    iters: u64,
    samples: usize,
}

impl Bencher {
    /// Times `samples` calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..self.samples {
            let t = Instant::now();
            black_box(routine());
            self.total += t.elapsed();
            self.iters += 1;
        }
    }
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{}/{}", name.into(), parameter) }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(c: &mut Criterion) {
        let mut g = c.benchmark_group("g");
        g.sample_size(3).measurement_time(Duration::from_millis(1));
        g.bench_function(BenchmarkId::new("add", 4), |b| b.iter(|| 2 + 2));
        g.bench_function(BenchmarkId::from_parameter("p"), |b| b.iter(|| 1));
        g.finish();
    }

    criterion_group!(benches, smoke);

    #[test]
    fn group_runner_executes() {
        benches();
    }
}
