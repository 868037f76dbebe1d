//! Argument checks of the `xdrop` command-line front end, run on the
//! built binary.

use std::process::Command;

/// A two-read FASTA in the system temp directory, unique per process.
fn reads_fasta() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("xdrop-cli-{}.fa", std::process::id()));
    std::fs::write(&path, ">r0\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n>r1\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n")
        .expect("write temp FASTA");
    path
}

/// A DNA k-mer packs 2 bits per base into a `u64`, so `--k` above 32
/// would silently seed on 32-mers; it is a usage error instead, as is
/// `--k 0`.
#[test]
fn assemble_rejects_k_beyond_packed_width() {
    let fasta = reads_fasta();
    for k in ["40", "33", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_xdrop"))
            .args(["assemble", fasta.to_str().unwrap(), "--k", k])
            .output()
            .expect("run xdrop");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--k {k}: {stderr}");
        assert!(
            stderr.contains(&format!("--k {k} outside 1..=32")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    let ok = Command::new(env!("CARGO_BIN_EXE_xdrop"))
        .args(["assemble", fasta.to_str().unwrap(), "--k", "32"])
        .output()
        .expect("run xdrop");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    std::fs::remove_file(fasta).ok();
}
