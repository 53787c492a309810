//! End-to-end tests of the `pangulu` command-line driver.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pangulu"))
}

#[test]
fn solves_a_generated_matrix() {
    let out = bin()
        .args(["--gen", "ecology1", "-np", "2", "--refine", "1e-12"])
        .output()
        .expect("run pangulu");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("relative residual"), "missing residual line:\n{stdout}");
    assert!(stdout.contains("nnz(L+U)"));
}

#[test]
fn solves_a_matrix_market_file_and_writes_solution() {
    let dir = std::env::temp_dir();
    let mtx = dir.join("pangulu_cli_test.mtx");
    let solution = dir.join("pangulu_cli_test.sol");
    let a = pangulu::sparse::gen::laplacian_2d(8, 8);
    pangulu::sparse::io::write_matrix_market(&mtx, &a).unwrap();

    let out = bin()
        .args(["-F", mtx.to_str().unwrap(), "--out", solution.to_str().unwrap()])
        .output()
        .expect("run pangulu");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // The written solution must actually solve A x = 1.
    let text = std::fs::read_to_string(&solution).unwrap();
    let x: Vec<f64> = text.split_whitespace().map(|t| t.parse().unwrap()).collect();
    assert_eq!(x.len(), a.nrows());
    let b = vec![1.0; a.nrows()];
    let r = pangulu::sparse::ops::relative_residual(&a, &x, &b).unwrap();
    assert!(r < 1e-10, "solution file residual {r}");
    std::fs::remove_file(&mtx).ok();
    std::fs::remove_file(&solution).ok();
}

/// A solution file that cannot be written is a reported error, not a
/// panic: `/dev/full` accepts the open and fails every write.
#[test]
fn unwritable_out_path_fails_without_panicking() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = bin().args(["--gen", "apache2", "--out", "/dev/full"]).output().expect("run pangulu");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("writing /dev/full"), "stderr must name the path: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// A refinement tolerance that is not a positive finite number is a usage
/// error: NaN would skip every correction and a tolerance ≤ 0 would run to
/// the iteration cap.
#[test]
fn refine_rejects_a_tolerance_that_is_not_positive_and_finite() {
    for tol in ["nan", "inf", "0", "-1e-9"] {
        let out = bin().args(["--gen", "apache2", "--refine", tol]).output().expect("run pangulu");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tol}: {stderr}");
        assert!(stderr.contains("positive finite tolerance"), "{tol}: {stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("refinement:"), "{tol}");
    }
}

#[test]
fn rejects_missing_input() {
    let out = bin().output().expect("run pangulu");
    assert!(!out.status.success());
}

/// A typo in the CI seed expression must not silently validate seed 1.
#[test]
fn trace_validate_rejects_a_non_numeric_seed() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_validate"))
        .arg("1+x")
        .output()
        .expect("run trace_validate");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: trace_validate [seed]"));
}

#[test]
fn lists_generators() {
    let out = bin().arg("--list").output().expect("run pangulu");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["ASIC_680k", "audikw_1", "nlpkkt80"] {
        assert!(stdout.contains(name));
    }
}

/// The report explains its own numbers: hubs set aside by the ordering,
/// and a plan pool that is empty until the first refactorisation.
#[test]
fn report_names_deferred_hubs_and_when_plans_exist() {
    let out =
        bin().args(["--gen", "ASIC_680k", "--refactor-reps", "1"]).output().expect("run pangulu");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ordering: amd, 8 hubs last (natural >"), "{stdout}");
    let plans: Vec<&str> = stdout.lines().filter(|l| l.starts_with("kernel plans: ")).collect();
    assert_eq!(plans.len(), 2, "{stdout}");
    assert_eq!(plans[0], "kernel plans: none yet (built by the first refactor)");
    assert!(plans[1].ends_with(" plans") && !plans[1].contains(": 0 bytes"), "{stdout}");
}
