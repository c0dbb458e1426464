//! `serve-durable`: an open-loop stream of seeded transfer blocks, each
//! followed by one `read`. Untraced runs drive the release `janus-serve`
//! binary over stdin/stdout; traced runs drive the same stream through
//! `BlockExecutor` and `Wal` in-process, where the seams can be timed.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use janus::block::{BlockExecutor, BlockOutcome, BlockStatus, PipelineMode};
use janus::core::{CommitSink, Janus, Store, Task};
use janus::detect::{ConflictDetector, SequenceDetector};
use janus::log::LocId;
use janus::relational::Value;
use janus::sched::Fifo;
use janus::wal::{recover, FsyncPolicy, Wal};

use crate::batch::{detector_counters, report_core_layers, run_with_deadline, LayerSample};
use crate::probe::{timed_tasks, Clock, Probes, TimedDetector, TimedPolicy, TimedSink};
use crate::report::{median, peak_rss_mb, quantile, ratio, RunReport, SplitMix};
use crate::{Params, THREADS};

/// The stream's fixed parameters.
pub struct ServeSpec {
    /// Blocks sent per second.
    pub rate: f64,
    pub block_txns: usize,
    pub accounts: usize,
    /// `janus-serve --max-inflight`: admission queue slots (a block and
    /// its read take one each).
    pub max_inflight: usize,
}

/// `janus-serve --wal-fsync` (its default group commit).
const FSYNC: &str = "every-n:8";
/// Boots per run; `setup_s` is the median boot-to-first-answer time.
const SETUP_BOOTS: usize = 11;
/// Blocks whose transactions `speedup_vs_seq` replays, and how often
/// (traced runs replay only for `core.seq_s`).
const SPEEDUP_BLOCKS: usize = 500;
const SPEEDUP_PAIRS: usize = 21;
const TRACED_REPLAYS: usize = 3;
/// How long any one protocol answer may take before the run fails.
const ANSWER_DEADLINE: Duration = Duration::from_secs(30);

impl ServeSpec {
    pub fn params(&self) -> Params {
        Params {
            scale: format!("{} accounts, {} txns/block", self.accounts, self.block_txns),
            detector: "sequence".to_string(),
            rate: format!("{} blocks/s open loop, one read per block", self.rate),
            fsync: FSYNC.to_string(),
        }
    }
}

#[derive(Clone, Copy)]
enum Item {
    Deposit(usize, i64),
    Transfer(usize, usize, i64),
}

struct Block {
    items: Vec<Item>,
    read: usize,
}

/// The seeded block stream: three transfers to every deposit, amounts
/// 1..=100, accounts uniform.
fn blocks(spec: &ServeSpec, seed: u64) -> impl Iterator<Item = Block> + '_ {
    let mut rng = SplitMix(seed ^ 0x5e2f_e000_0000_0001);
    let n = spec.accounts as u64;
    std::iter::repeat_with(move || {
        let items = (0..spec.block_txns)
            .map(|_| {
                let amount = 1 + rng.below(100) as i64;
                if rng.below(4) == 0 {
                    Item::Deposit(rng.below(n) as usize, amount)
                } else {
                    let from = rng.below(n);
                    let mut to = rng.below(n - 1);
                    if to >= from {
                        to += 1;
                    }
                    Item::Transfer(from as usize, to as usize, amount)
                }
            })
            .collect();
        Block {
            items,
            read: rng.below(n) as usize,
        }
    })
}

/// The block's protocol lines: `batch b<k> ...` then `read <acct>`.
fn block_lines(k: usize, block: &Block) -> String {
    let mut s = format!("batch b{k}");
    for item in &block.items {
        match *item {
            Item::Deposit(a, d) => s.push_str(&format!(" {a}:+{d}")),
            Item::Transfer(a, b, d) => s.push_str(&format!(" {a}>{b}:{d}")),
        }
    }
    s.push_str(&format!("\nread {}\n", block.read));
    s
}

fn apply(balances: &mut [i64], items: &[Item]) {
    for item in items {
        match *item {
            Item::Deposit(a, d) => balances[a] += d,
            Item::Transfer(a, b, d) => {
                balances[a] -= d;
                balances[b] += d;
            }
        }
    }
}

fn deposits(items: &[Item]) -> i64 {
    items
        .iter()
        .map(|i| match *i {
            Item::Deposit(_, d) => d,
            Item::Transfer(..) => 0,
        })
        .sum()
}

/// The store `janus-serve --locs n` boots: accounts `acct0..` at 0, in
/// allocation order.
fn account_store(n: usize) -> (Store, Vec<LocId>) {
    let mut store = Store::new();
    let accounts = (0..n)
        .map(|i| store.alloc(format!("acct{i}").as_str(), Value::int(0)))
        .collect();
    (store, accounts)
}

/// The same transactions `janus-serve` builds from the protocol items.
fn tasks_of(items: &[Item], accounts: &[LocId]) -> Vec<Task> {
    items
        .iter()
        .map(|item| match *item {
            Item::Deposit(a, d) => {
                let loc = accounts[a];
                Task::new(move |tx| tx.add(loc, d))
            }
            Item::Transfer(a, b, d) => {
                let (src, dst) = (accounts[a], accounts[b]);
                Task::new(move |tx| {
                    tx.add(src, -d);
                    tx.add(dst, d);
                })
            }
        })
        .collect()
}

fn balances_of(store: &Store, accounts: &[LocId]) -> Vec<i64> {
    accounts
        .iter()
        .map(|&loc| store.value(loc).and_then(Value::as_int).unwrap_or(i64::MIN))
        .collect()
}

/// Recovers the journal in `dir` and checks it reproduces `expected`.
fn check_recovery(dir: &Path, spec: &ServeSpec, expected: &[i64], commits: u64, r: &mut RunReport) {
    let (base, accounts) = account_store(spec.accounts);
    match recover(dir, base) {
        Ok(rec) => {
            r.check(balances_of(&rec.store, &accounts) == expected, || {
                "recovered balances differ from the blocks' effects".to_string()
            });
            r.check(rec.commit_seq == commits, || {
                format!(
                    "recovered commit_seq {} != {commits} commits",
                    rec.commit_seq
                )
            });
        }
        Err(e) => r.check(false, || format!("wal recovery failed: {e}")),
    }
}

/// `speedup_vs_seq` of the stream's transactions: median
/// `Janus::run_sequential` wall ÷ median `Janus::run` wall over the
/// first `SPEEDUP_BLOCKS` blocks, `pairs` runs of each. Returns (ratio,
/// median sequential s).
fn stream_speedup(spec: &ServeSpec, seed: u64, pairs: usize, r: &mut RunReport) -> (f64, f64) {
    let (store, accounts) = account_store(spec.accounts);
    let items: Vec<Item> = blocks(spec, seed)
        .take(SPEEDUP_BLOCKS)
        .flat_map(|b| b.items)
        .collect();
    let tasks = tasks_of(&items, &accounts);
    let mut expected = vec![0; spec.accounts];
    apply(&mut expected, &items);
    let detector: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());
    let janus = Janus::new(detector).threads(THREADS);
    let (mut walls, mut seqs) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let t = Instant::now();
        let (seq_store, _) = Janus::run_sequential(store.clone(), &tasks);
        let seq = t.elapsed().as_secs_f64();
        r.attempted += 2 * tasks.len() as u64;
        r.check(balances_of(&seq_store, &accounts) == expected, || {
            "sequential replay balances differ".to_string()
        });
        let Some((outcome, wall)) = run_with_deadline(&janus, store.clone(), tasks.clone()) else {
            r.failed += tasks.len() as u64;
            break;
        };
        let ok = outcome.stats.commits == tasks.len() as u64
            && balances_of(&outcome.store, &accounts) == expected;
        r.check(ok, || {
            "parallel replay of the stream's transactions differs".to_string()
        });
        if !ok {
            r.failed += tasks.len() as u64;
        }
        walls.push(wall);
        seqs.push(seq);
    }
    (median(&seqs) / median(&walls), median(&seqs))
}

/// A running `janus-serve` with a reader thread timestamping its
/// stdout lines.
struct Server {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    /// Every line received so far, with its arrival time.
    lines: Vec<(Instant, String)>,
    /// Lines before this index were already matched by `wait_for`.
    scanned: usize,
}

impl Server {
    fn boot(bin: &Path, wal_dir: &Path, spec: &ServeSpec) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--threads", &THREADS.to_string()])
            .args(["--locs", &spec.accounts.to_string()])
            .args(["--max-inflight", &spec.max_inflight.to_string()])
            .args(["--wal-fsync", FSYNC])
            .arg("--wal-dir")
            .arg(wal_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("perfbench-serve-reader".into())
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send((Instant::now(), line)).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Server {
            child,
            stdin,
            rx,
            reader: Some(reader),
            lines: Vec::new(),
            scanned: 0,
        })
    }

    fn send(&mut self, text: &str) -> bool {
        self.stdin.write_all(text.as_bytes()).is_ok() && self.stdin.flush().is_ok()
    }

    /// Waits for the next line (after the last match) satisfying
    /// `pred`; returns its index, or `None` after `ANSWER_DEADLINE`.
    fn wait_for(&mut self, pred: impl Fn(&str) -> bool) -> Option<usize> {
        let deadline = Instant::now() + ANSWER_DEADLINE;
        loop {
            if let Some(i) = (self.scanned..self.lines.len()).find(|&i| pred(&self.lines[i].1)) {
                self.scanned = i + 1;
                return Some(i);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let line = self.rx.recv_timeout(left).ok()?;
            self.lines.push(line);
        }
    }

    /// Sends `quit`, waits for `bye` and the exit; kills the process if
    /// either does not come. Returns every line received and whether
    /// the process exited successfully after answering `bye`.
    fn quit(mut self) -> (Vec<(Instant, String)>, bool) {
        let bye = self.send("quit\n") && self.wait_for(|l| l.starts_with("bye ")).is_some();
        let exited = self.reap();
        (std::mem::take(&mut self.lines), bye && exited)
    }

    /// Waits (bounded) for the process to exit, killing it otherwise,
    /// and joins the reader.
    fn reap(&mut self) -> bool {
        let deadline = Instant::now() + ANSWER_DEADLINE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        status.is_some_and(|s| s.success())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            self.reap();
        }
    }
}

/// `key=<u64>` from a protocol line.
fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Boots the server on a fresh journal directory and times it until it
/// answers its first read.
fn boot_timed(bin: &Path, dir: &Path, spec: &ServeSpec) -> Option<(Server, f64)> {
    let t = Instant::now();
    let mut server = Server::boot(bin, dir, spec).ok()?;
    if !server.send("read 0\n") {
        return None;
    }
    server.wait_for(|l| l.starts_with("value 0 "))?;
    Some((server, t.elapsed().as_secs_f64()))
}

/// The untraced run against the release binary: end-to-end metrics.
pub fn run_untraced(
    spec: &ServeSpec,
    bin: &Path,
    tmp: &Path,
    seed: u64,
    seconds: f64,
    r: &mut RunReport,
) -> Result<u64, String> {
    let mut boots = Vec::new();
    let mut server = None;
    for i in 0..SETUP_BOOTS {
        let dir = tmp.join(format!("boot-{i}"));
        let (s, secs) = boot_timed(bin, &dir, spec).ok_or("janus-serve did not boot")?;
        boots.push(secs);
        if i + 1 < SETUP_BOOTS {
            if !s.quit().1 {
                return Err("janus-serve did not shut down cleanly".into());
            }
        } else {
            server = Some((s, dir));
        }
    }
    let (mut server, wal_dir) = server.expect("the last boot serves the stream");
    // Lines from here on answer the stream.
    let stream_from = server.scanned;

    // The open loop: block k is due at k / rate, sent together with its
    // read, whatever the server's progress.
    let n_blocks = ((seconds * spec.rate).ceil() as usize).max(1);
    let gap = Duration::from_secs_f64(1.0 / spec.rate);
    let mut sent = Vec::with_capacity(n_blocks);
    let mut late = Vec::with_capacity(n_blocks);
    let t0 = Instant::now() + gap;
    for (k, block) in blocks(spec, seed).take(n_blocks).enumerate() {
        let text = block_lines(k, &block);
        let due = t0 + gap * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late.push(Instant::now().duration_since(due).as_secs_f64());
        if !server.send(&text) {
            return Err("janus-serve closed its input mid-stream".into());
        }
        sent.push((due, block));
    }
    r.attempted += 2 * n_blocks as u64;
    if !server.send("drain\n") {
        return Err("janus-serve closed its input".into());
    }
    let drained = server
        .wait_for(|l| l.starts_with("drained "))
        .ok_or("no drained line")?;
    let drained_seq = field(&server.lines[drained].1, "commit_seq");
    let mut final_reads = String::new();
    for a in 0..spec.accounts {
        final_reads.push_str(&format!("read {a}\n"));
    }
    server.send(&final_reads);
    let mut balances = Vec::with_capacity(spec.accounts);
    for a in 0..spec.accounts {
        let prefix = format!("value {a} ");
        let i = server
            .wait_for(|l| l.starts_with(&prefix))
            .ok_or("final read unanswered")?;
        balances.push(
            server.lines[i].1[prefix.len()..]
                .parse::<i64>()
                .unwrap_or(i64::MIN),
        );
    }
    let rss = peak_rss_mb(&server.child.id().to_string()).unwrap_or(0.0);
    let (lines, exit_ok) = server.quit();

    // Replay the transcript: admissions, completions and read answers.
    let mut done: Vec<Option<(Instant, bool, u64)>> = vec![None; n_blocks];
    let mut admitted = vec![false; n_blocks];
    let mut read_at = Vec::with_capacity(n_blocks);
    let (mut refused, mut errors) = (0u64, 0u64);
    let mut bye = None;
    let block_id = |w: Option<&str>| -> Option<usize> {
        w?.strip_prefix('b')?.parse().ok().filter(|&k| k < n_blocks)
    };
    for (i, (at, line)) in lines.iter().enumerate() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("admitted") => {
                if let Some(k) = block_id(words.next()) {
                    admitted[k] = true;
                }
            }
            Some("shed") | Some("closed") => refused += 1,
            Some("done") => {
                if let Some(k) = block_id(words.next()) {
                    let committed = line.contains(" status=committed ");
                    done[k] = Some((*at, committed, field(line, "commits").unwrap_or(0)));
                }
            }
            Some("value") if i >= stream_from && i < drained => read_at.push(*at),
            Some("error") => errors += 1,
            Some("bye") => bye = Some(line.clone()),
            _ => {}
        }
    }
    let mut expected = vec![0i64; spec.accounts];
    let (mut block_ms, mut commits, mut bad_blocks, mut deposited) = (Vec::new(), 0u64, 0u64, 0);
    for (k, (due, block)) in sent.iter().enumerate() {
        if !admitted[k] {
            continue;
        }
        apply(&mut expected, &block.items);
        deposited += deposits(&block.items);
        match done[k] {
            Some((at, true, c)) if c == block.items.len() as u64 => {
                block_ms.push(at.duration_since(*due).as_secs_f64() * 1e3);
                commits += c;
            }
            Some((_, _, c)) => {
                bad_blocks += 1;
                commits += c;
            }
            None => bad_blocks += 1,
        }
    }
    let read_ms: Vec<f64> = read_at
        .iter()
        .zip(&sent)
        .map(|(at, (due, _))| at.duration_since(*due).as_secs_f64() * 1e3)
        .collect();
    let unanswered = n_blocks.saturating_sub(read_ms.len()) as u64;
    r.failed += refused + errors + bad_blocks + unanswered;
    r.check(errors == 0, || {
        format!("{errors} error lines from janus-serve")
    });
    r.check(bad_blocks == 0, || {
        format!("{bad_blocks} blocks not fully committed")
    });
    r.check(balances == expected, || {
        "drained balances differ from the admitted blocks' effects".to_string()
    });
    r.check(balances.iter().sum::<i64>() == deposited, || {
        "transfers do not net to zero: balance sum != deposits".to_string()
    });
    r.check(drained_seq == Some(commits), || {
        format!("drained commit_seq {drained_seq:?} != {commits} committed transactions")
    });
    let bye_ok = bye.as_deref().is_some_and(|b| {
        field(b, "commit_seq") == Some(commits) && field(b, "txns_committed") == Some(commits)
    });
    r.check(bye_ok && exit_ok, || {
        format!("shutdown: {bye:?} (expected commit_seq = txns_committed = {commits}), clean exit {exit_ok}")
    });
    check_recovery(&wal_dir, spec, &expected, commits, r);

    let last_done = done.iter().flatten().map(|d| d.0).max().unwrap_or(t0);
    let stream_s = last_done.duration_since(t0).as_secs_f64();
    let (speedup, _) = stream_speedup(spec, seed, SPEEDUP_PAIRS, r);
    eprintln!("serve-durable: {n_blocks} blocks sent, {refused} refused");
    r.metric("txn_per_s", ratio(commits as f64, stream_s), "1/s");
    r.metric("speedup_vs_seq", speedup, "ratio");
    r.metric("setup_s", median(&boots), "s");
    r.metric("peak_rss_mb", rss, "MB");
    r.metric("block_p50_ms", median(&block_ms), "ms");
    r.reported("block_p99_ms", quantile(&block_ms, 0.99), "ms");
    r.reported("read_p50_ms", median(&read_ms), "ms");
    r.reported("read_p99_ms", quantile(&read_ms, 0.99), "ms");
    r.reported("gen_late_p99_ms", quantile(&late, 0.99) * 1e3, "ms");
    Ok(n_blocks as u64)
}

/// Layer figures of the block pipeline and the journal.
#[derive(Default)]
pub struct PipelineLayers {
    pub submit: Clock,
    pub drain: Clock,
    pub snapshot: Clock,
    pub flush: Clock,
    pub exec_ms: Vec<f64>,
    pub gate_waits: u64,
    pub appends: u64,
    pub append_s: f64,
    pub append_max_ms: f64,
    pub bytes: u64,
    pub fsyncs: u64,
    pub commits: u64,
    pub late_ms: Vec<f64>,
    /// Per read: from its due time to the value.
    pub read_ms: Vec<f64>,
}

pub fn report_pipeline_layers(p: &PipelineLayers, r: &mut RunReport) {
    r.metric("block.submit_s", p.submit.secs(), "s");
    r.metric("block.drain_s", p.drain.secs(), "s");
    r.metric("block.exec_p50_ms", median(&p.exec_ms), "ms");
    r.metric("block.gate_waits", p.gate_waits as f64, "count");
    r.metric("block.snapshot_s", p.snapshot.secs(), "s");
    r.metric("block.read_p50_ms", median(&p.read_ms), "ms");
    r.metric("block.read_p99_ms", quantile(&p.read_ms, 0.99), "ms");
    r.metric("wal.append_s", p.append_s, "s");
    r.metric("wal.appends", p.appends as f64, "count");
    r.metric("wal.append_max_ms", p.append_max_ms, "ms");
    r.metric("wal.flush_s", p.flush.secs(), "s");
    r.metric(
        "wal.bytes_per_txn",
        ratio(p.bytes as f64, p.commits as f64),
        "B/txn",
    );
    r.metric(
        "wal.fsyncs_per_txn",
        ratio(p.fsyncs as f64, p.commits as f64),
        "fsync/txn",
    );
    r.metric("bench.gen_late_p99_ms", quantile(&p.late_ms, 0.99), "ms");
}

/// Accounts retired blocks: checks each fully committed and adds its
/// batch figures.
fn retire(
    outcomes: Vec<BlockOutcome>,
    sample: &mut LayerSample,
    layers: &mut PipelineLayers,
    r: &mut RunReport,
) {
    for o in outcomes {
        let ok = o.status == BlockStatus::Committed && o.commits() == o.tasks as u64;
        r.check(ok, || {
            format!("in-process block {} not fully committed", o.seq)
        });
        if !ok {
            r.failed += 1;
        }
        layers.exec_ms.push(o.latency.as_secs_f64() * 1e3);
        if let Some(b) = &o.batch {
            let wall = b.stats.wall.as_secs_f64();
            sample.run_s += wall;
            sample.worker_s += wall * THREADS.min(o.tasks) as f64;
            sample.commits += b.stats.commits as f64;
            sample.retries += b.stats.retries as f64;
            sample.history_reclaimed += b.stats.history_reclaimed as f64;
            layers.gate_waits += b.stats.commit_gate_waits;
        }
    }
}

/// The stream through an in-process `BlockExecutor` journaling to a
/// `Wal`, the way `janus-serve` wires them. With `probes`, the
/// detector, scheduler, task bodies and commit sink are timed.
fn inproc_stream(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    wal_dir: &Path,
    probes: Option<&Arc<Probes>>,
    r: &mut RunReport,
) -> (LayerSample, PipelineLayers) {
    let (store, accounts) = account_store(spec.accounts);
    let wal = Wal::open(wal_dir, FsyncPolicy::EveryN(8), 0).expect("open the journal");
    let detector: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());
    let sink: Arc<dyn CommitSink> = wal.sink();
    let janus = Janus::new(match probes {
        Some(p) => Arc::new(TimedDetector {
            inner: Arc::clone(&detector),
            probes: Arc::clone(p),
        }),
        None => Arc::clone(&detector),
    })
    .threads(THREADS);
    let janus = match probes {
        Some(p) => janus
            .schedule(Arc::new(TimedPolicy {
                inner: Arc::new(Fifo),
                probes: Arc::clone(p),
            }))
            .commit_sink(Arc::new(TimedSink {
                inner: sink,
                probes: Arc::clone(p),
            })),
        None => janus.commit_sink(sink),
    };
    let before = detector_counters(detector.as_ref());
    let mut exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
    let mut layers = PipelineLayers::default();
    let mut sample = LayerSample::default();
    let n_blocks = ((seconds * spec.rate).ceil() as usize).max(1);
    let gap = Duration::from_secs_f64(1.0 / spec.rate);
    let mut expected = vec![0i64; spec.accounts];
    let t0 = Instant::now() + gap;
    for (k, block) in blocks(spec, seed).take(n_blocks).enumerate() {
        apply(&mut expected, &block.items);
        let mut tasks = tasks_of(&block.items, &accounts);
        if let Some(p) = probes {
            tasks = timed_tasks(&tasks, p);
        }
        let due = t0 + gap * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        layers
            .late_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let submitted = layers.submit.time(|| exec.submit(tasks));
        retire(submitted.retired, &mut sample, &mut layers, r);
        let loc = accounts[block.read];
        let v = layers
            .snapshot
            .time(|| exec.store_snapshot().value(loc).and_then(Value::as_int));
        layers.read_ms.push(due.elapsed().as_secs_f64() * 1e3);
        r.check(v.is_some(), || {
            format!("read of account {} failed", block.read)
        });
    }
    r.attempted += 2 * n_blocks as u64;
    let tail = layers.drain.time(|| exec.drain());
    retire(tail, &mut sample, &mut layers, r);
    let flushed = layers.flush.time(|| wal.flush());
    r.check(flushed.is_ok(), || format!("wal flush failed: {flushed:?}"));
    let commits = exec.commit_seq();
    let (final_store, shards, _) = exec.finish();
    r.check(balances_of(&final_store, &accounts) == expected, || {
        "in-process balances differ from the blocks' effects".to_string()
    });
    r.check(commits as f64 == sample.commits, || {
        format!(
            "commit_seq {commits} != {} committed transactions",
            sample.commits
        )
    });
    sample.lock_wait_s = shards.lock_wait_ns().sum() as f64 / 1e9;
    sample.add_detector_delta(detector.as_ref(), before);
    layers.appends = wal.stats().appends();
    layers.bytes = wal.stats().bytes();
    layers.fsyncs = wal.stats().fsync_batches();
    layers.commits = commits;
    drop(wal);
    check_recovery(wal_dir, spec, &expected, commits, r);
    (sample, layers)
}

/// The traced run: an untraced and a traced in-process stream of half
/// the run each; per-layer metrics are totals over the traced stream.
pub fn run_traced(spec: &ServeSpec, tmp: &Path, seed: u64, seconds: f64, r: &mut RunReport) -> u64 {
    let half = seconds / 2.0;
    let (plain, _) = inproc_stream(spec, seed, half, &tmp.join("plain"), None, r);
    let probes = Arc::new(Probes::default());
    let (mut t, mut layers) =
        inproc_stream(spec, seed, half, &tmp.join("traced"), Some(&probes), r);
    t.add_probes(&probes);
    layers.append_s = probes.sink.secs();
    layers.append_max_ms = probes.sink.max_ms();
    r.check(t.other_s() >= 0.0, || {
        format!(
            "traced stream double-counts: other_s = {:.6} s < 0",
            t.other_s()
        )
    });
    let (_, seq_s) = stream_speedup(spec, seed, TRACED_REPLAYS, r);
    report_core_layers(&t, 1.0, seq_s, ratio(t.run_s, plain.run_s), r);
    r.metric("train.train_s", 0.0, "s");
    r.metric("train.freeze_s", 0.0, "s");
    r.metric("train.cache_miss_frac", 0.0, "ratio");
    report_pipeline_layers(&layers, r);
    (half * spec.rate).ceil() as u64
}
