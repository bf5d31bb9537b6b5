//! Fault injection on the daemon's `shard_submit` path, driven through the
//! real `paper-report serve` binary: the MP_FAULT_PLAN spec (see
//! PROTOCOL.md) is set on the daemon process only, so a coordinator fanning
//! a campaign out across daemons can rehearse a daemon that garbles a
//! result line or dies mid-shard. Also the startup contract those tests
//! lean on: the socket file appears only once the daemon is listening.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long a test waits on the daemon (a reply, or its exit) before it
/// fails instead of hanging the suite.
const LIMIT: Duration = Duration::from_secs(60);

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mp-daemon-faults-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A `paper-report serve` child, killed when dropped: a failing test must
/// not leave a daemon running.
struct DaemonProcess(Child);

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl DaemonProcess {
    /// Waits for the daemon to exit; fails the test past [`LIMIT`].
    fn wait_within(&mut self) -> ExitStatus {
        let deadline = Instant::now() + LIMIT;
        loop {
            if let Some(status) = self.0.try_wait().expect("poll the daemon") {
                return status;
            }
            assert!(Instant::now() < deadline, "the daemon did not exit within {LIMIT:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Starts `paper-report serve` with the given fault env and waits until
/// the socket file exists, which means the daemon is listening.
fn spawn_daemon(socket: &Path, plan: &str, claims: &Path) -> DaemonProcess {
    let daemon = DaemonProcess(
        Command::new(env!("CARGO_BIN_EXE_paper-report"))
            .args(["serve", "--socket", socket.to_str().unwrap()])
            .env("MP_FAULT_PLAN", plan)
            .env("MP_FAULT_DIR", claims)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    // `test -S`: wait for a socket file, not for a connect to succeed.
    while !std::fs::symlink_metadata(socket).is_ok_and(|meta| meta.file_type().is_socket()) {
        assert!(Instant::now() < deadline, "the daemon never created its socket");
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon
}

const SHARD_SUBMIT: &str = concat!(
    "{\"op\":\"shard_submit\",\"config\":{\"seed\":13,\"fleet_clients\":2000,",
    "\"fleet_aps\":4,\"fleet_days\":3,\"fleet_churn\":0.2,\"fleet_jobs\":1},",
    "\"first_ap\":0,\"aps\":2}"
);

/// Connects to the daemon with reads bounded by [`LIMIT`].
fn connect(socket: &Path) -> UnixStream {
    let stream = UnixStream::connect(socket).expect("connect to daemon");
    stream.set_read_timeout(Some(LIMIT)).expect("set a read timeout");
    stream
}

fn request_line(socket: &Path, request: &str) -> String {
    let mut stream = connect(socket);
    writeln!(stream, "{request}").expect("write request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply line");
    line
}

#[test]
fn a_garble_fault_truncates_the_daemons_shard_result_line() {
    let dir = temp_dir("garble");
    let socket = dir.join("daemon.sock");
    let claims = dir.join("claims");
    // garble@1: the first shard runs to completion but its result line is
    // cut short; the second shard must come back intact — the fault is
    // positional, not sticky.
    let mut daemon = spawn_daemon(&socket, "garble@1", &claims);

    let garbled = request_line(&socket, SHARD_SUBMIT);
    assert!(
        !garbled.trim().is_empty() && garbled.starts_with('{'),
        "the garbled reply is a strict prefix of the result: {garbled:?}"
    );
    assert!(
        parasite::json::Json::parse(garbled.trim()).is_err(),
        "a garbled line must not parse: {garbled:?}"
    );

    let intact = request_line(&socket, SHARD_SUBMIT);
    let reply = parasite::json::Json::parse(intact.trim()).expect("second reply parses");
    assert_eq!(
        reply.get("type").and_then(parasite::json::Json::as_str),
        Some("shard_result"),
        "got: {intact}"
    );

    let _ = request_line(&socket, "{\"op\":\"shutdown\"}");
    daemon.wait_within();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_fault_kills_the_daemon_before_the_shard_result() {
    let dir = temp_dir("crash");
    let socket = dir.join("daemon.sock");
    let claims = dir.join("claims");
    let mut daemon = spawn_daemon(&socket, "crash@1", &claims);

    // The daemon dies before replying: the connection sees EOF.
    let mut stream = connect(&socket);
    writeln!(stream, "{SHARD_SUBMIT}").expect("write request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let read = reader.read_line(&mut line).expect("read returns");
    assert_eq!(read, 0, "the crashed daemon must hang up, got: {line:?}");

    let status = daemon.wait_within();
    assert_eq!(status.code(), Some(3), "the crash fault exits 3");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_socket_file_appears_only_once_the_daemon_listens() {
    let dir = temp_dir("ready");
    let socket = dir.join("daemon.sock");
    let claims = dir.join("claims");
    for start in 0..20 {
        let mut daemon = spawn_daemon(&socket, "", &claims);
        // One connect, no retry: the file's existence is the readiness signal.
        if let Err(error) = UnixStream::connect(&socket) {
            panic!("start {start}: connect right after the socket appeared failed: {error}");
        }
        let _ = request_line(&socket, "{\"op\":\"shutdown\"}");
        assert!(daemon.wait_within().success(), "start {start}: clean shutdown");
        assert!(!socket.exists(), "start {start}: socket removed on shutdown");
    }
    let leftovers: Vec<_> =
        std::fs::read_dir(&dir).unwrap().flatten().map(|entry| entry.file_name()).collect();
    assert!(leftovers.iter().all(|name| name == "claims"), "no staging files left: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
