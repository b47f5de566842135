//! `overton` — the two-file contract as a command line.
//!
//! A *project directory* holds the paper's entire engineer contract:
//!
//! ```text
//! <dir>/schema.json   payloads + tasks
//! <dir>/data.jsonl    one record per line (supervision, tags, slices)
//! ```
//!
//! Every other artifact is produced by the tool under `<dir>/runs/<id>/`
//! (sealed store, per-stage artifacts, `report.json`) and
//! `<dir>/registry/`. No Rust — or any other code — is required of the
//! engineer: edit the data file, `overton build`, read `overton report`.

use overton::model::Server;
use overton::nlp::{
    write_two_file_workload, DriftConfig, DriftingTrafficStream, KnowledgeBase, TrafficConfig,
    WorkloadConfig,
};
use overton::obs::{default_rules, Monitor, ObsConfig, ObsLog, Watchdog, WatchdogConfig};
use overton::serving::net::{self, NetClient, NetConfig, NetServer, PredictOutcome};
use overton::serving::{CascadeEngine, ServingConfig, TrafficBaseline, WorkerPool};
use overton::store::live::LIVE_MANIFEST;
use overton::store::{LiveStore, Schema, ShardedStore};
use overton::{model::DeployableModel, monitor::QualityReport, OvertonOptions, Project, Stage};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
overton — the Overton two-file contract, no code required

USAGE:
    overton <command> <project-dir> [options]

COMMANDS:
    init      write an example schema.json + data.jsonl workload pair
    build     run the staged pipeline on the two files (ingest → evaluate)
    evaluate  re-run evaluation of a persisted run (no retraining)
    serve     serve a persisted run's test split through the worker pool
    monitor   replay the deployment's obslog: windowed history + alerts
    meter     print the project's test-set reuse budget ledger
              (<dir>/meter.json): initial budget, per-run debits, remaining
    report    print a persisted run's stage telemetry + quality reports
    trace     render spans: a run's trace.jsonl (trace <project-dir>), or
              a live server's slowest requests (trace <addr>, e.g.
              trace 127.0.0.1:7878)
    append    append <dir> <file>: append JSONL records into the project's
              live store (<dir>/live), sealing them as a delta segment
    compact   merge the live store's sealed deltas into its base (atomic,
              crash-safe; readers pinned to older snapshots are unaffected)
    store     store verify <dir>: run checksum verification across the
              live store's base + delta segments (or a plain sealed store
              directory), printing per-segment status

OPTIONS:
    --run <id>        operate on this run (default: the latest)
    --from <stage>    (build) resume the run from this stage:
                      ingest|combine|search|train|package|evaluate
                      (a resumed run keeps the options it started with)
    --epochs <n>      (build) training epochs for new runs [default: 8]
    --grad-workers <n> (build) threads sharing each optimizer step's
                      gradient computation [default: 1]. Any value yields
                      bit-identical weights; this is a wall-time knob only
    --train <n>       (init) training records        [default: 800]
    --dev <n>         (init) dev records             [default: 100]
    --test <n>        (init) test records            [default: 200]
    --seed <n>        (init/serve) RNG seed          [default: 0]
    --requests <n>    (serve) how many records to serve [default: all]
    --workers <n>     (serve) worker threads         [default: 4]
    --listen <addr>   (serve) serve over TCP on <addr> (e.g. 127.0.0.1:7878;
                      port 0 picks a free port) instead of replaying the
                      test split; drain with SIGTERM/Ctrl-C. Also exposes
                      GET /metrics (Prometheus text), /traces and
                      /trace/<id>; requests may carry an x-overton-trace
                      header to name their trace
    --probe           (serve --listen) one loopback round-trip through the
                      socket, then drain and exit (CI smoke)
    --high-water <n>  (serve --listen) shed /predict with 503 once the
                      pool queue reaches <n> [default: 256]
    --max-conns <n>   (serve --listen) connection cap; excess connections
                      get an immediate 503 [default: 64]
    --obs             (serve) observe the pool: windowed stats, drift
                      alerts, and an obslog under registry/<name>/obslog
    --drift           (serve) serve a seeded DriftingTrafficStream (slice
                      mix + vague-query shift halfway in; implies --obs)
    --capture         (serve) after serving, append gold-labeled traffic
                      from watchdog-escalated slices into <dir>/live for
                      the next incremental retrain (implies --obs)
    --window <n>      (serve) requests per tumbling window [default: 250]
    --csv             (monitor) dump the windowed history as CSV
    --id <trace-id>   (trace <addr>) fetch one trace by id instead of the
                      slowest-request list
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("overton: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return Err("missing command".into());
    };
    if command == "--help" || command == "-h" || command == "help" {
        print!("{USAGE}");
        return Ok(());
    }
    // `store verify <dir>` nests a subcommand before the directory.
    if command == "store" {
        return match args.get(1).map(String::as_str) {
            Some("verify") => {
                let dir = args
                    .get(2)
                    .filter(|a| !a.starts_with("--"))
                    .ok_or_else(|| format!("missing <dir>\n\n{USAGE}"))?;
                store_verify(Path::new(dir))
            }
            other => Err(format!(
                "unknown store subcommand {:?}; try `overton store verify <dir>`",
                other.unwrap_or("")
            )),
        };
    }
    let dir = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| format!("missing <project-dir>\n\n{USAGE}"))?;
    let dir = PathBuf::from(dir);
    // `append <dir> <file>` takes one more positional operand.
    if command == "append" {
        let file = args
            .get(2)
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| format!("missing <file>: append <dir> <file>\n\n{USAGE}"))?;
        let _ = Flags::parse(&args[3..])?;
        return append(&dir, Path::new(file));
    }
    let flags = Flags::parse(&args[2..])?;
    match command.as_str() {
        "init" => init(&dir, &flags),
        "build" => build(&dir, &flags),
        "evaluate" => evaluate(&dir, &flags),
        "serve" => serve(&dir, &flags),
        "monitor" => monitor(&dir, &flags),
        "meter" => meter(&dir),
        "report" => report(&dir, &flags),
        "trace" => trace(&dir, &flags),
        "compact" => compact(&dir),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

/// Parsed command-line options (all optional, all `--flag value`).
#[derive(Default)]
struct Flags {
    run: Option<String>,
    from: Option<Stage>,
    epochs: Option<usize>,
    grad_workers: Option<usize>,
    train: Option<usize>,
    dev: Option<usize>,
    test: Option<usize>,
    seed: Option<u64>,
    requests: Option<usize>,
    workers: Option<usize>,
    listen: Option<String>,
    probe: bool,
    high_water: Option<usize>,
    max_conns: Option<usize>,
    obs: bool,
    drift: bool,
    capture: bool,
    window: Option<u64>,
    csv: bool,
    id: Option<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().map(String::as_str).ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--run" => flags.run = Some(value("--run")?.to_string()),
                "--from" => {
                    let name = value("--from")?;
                    flags.from = Some(Stage::parse(name).ok_or(format!("unknown stage '{name}'"))?);
                }
                "--epochs" => flags.epochs = Some(parse_num(value("--epochs")?, "--epochs")?),
                "--grad-workers" => {
                    flags.grad_workers =
                        Some(parse_num(value("--grad-workers")?, "--grad-workers")?)
                }
                "--train" => flags.train = Some(parse_num(value("--train")?, "--train")?),
                "--dev" => flags.dev = Some(parse_num(value("--dev")?, "--dev")?),
                "--test" => flags.test = Some(parse_num(value("--test")?, "--test")?),
                "--seed" => flags.seed = Some(parse_num(value("--seed")?, "--seed")?),
                "--requests" => {
                    flags.requests = Some(parse_num(value("--requests")?, "--requests")?)
                }
                "--workers" => flags.workers = Some(parse_num(value("--workers")?, "--workers")?),
                "--listen" => flags.listen = Some(value("--listen")?.to_string()),
                "--probe" => flags.probe = true,
                "--high-water" => {
                    flags.high_water = Some(parse_num(value("--high-water")?, "--high-water")?)
                }
                "--max-conns" => {
                    flags.max_conns = Some(parse_num(value("--max-conns")?, "--max-conns")?)
                }
                "--obs" => flags.obs = true,
                "--drift" => {
                    flags.drift = true;
                    flags.obs = true;
                }
                "--capture" => {
                    flags.capture = true;
                    flags.obs = true;
                }
                "--window" => flags.window = Some(parse_num(value("--window")?, "--window")?),
                "--csv" => flags.csv = true,
                "--id" => flags.id = Some(value("--id")?.to_string()),
                other => return Err(format!("unknown option '{other}'\n\n{USAGE}")),
            }
        }
        Ok(flags)
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: '{value}' is not a number"))
}

/// The project over `<dir>/schema.json` + `<dir>/data.jsonl`, persisting
/// runs under `<dir>/runs/`.
fn project(dir: &Path, flags: &Flags) -> Project {
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "overton".into());
    let mut options = OvertonOptions::default();
    options.train.epochs = flags.epochs.unwrap_or(8);
    options.train.grad_workers = flags.grad_workers.unwrap_or(1);
    Project::from_files(dir.join("schema.json"), dir.join("data.jsonl"))
        .named(&name)
        .with_options(options)
        .at(dir)
}

fn run_id(dir: &Path, flags: &Flags) -> Result<String, String> {
    if let Some(id) = &flags.run {
        return Ok(id.clone());
    }
    project(dir, flags)
        .latest_run_id()
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no runs under {}; run `overton build` first", dir.display()))
}

fn init(dir: &Path, flags: &Flags) -> Result<(), String> {
    let config = WorkloadConfig {
        n_train: flags.train.unwrap_or(800),
        n_dev: flags.dev.unwrap_or(100),
        n_test: flags.test.unwrap_or(200),
        seed: flags.seed.unwrap_or(0),
        ..Default::default()
    };
    let (schema, data) = write_two_file_workload(&config, dir).map_err(|e| e.to_string())?;
    println!("wrote {}", schema.display());
    println!(
        "wrote {} ({} records: {} train / {} dev / {} test)",
        data.display(),
        config.n_train + config.n_dev + config.n_test,
        config.n_train,
        config.n_dev,
        config.n_test
    );
    println!("next: overton build {}", dir.display());
    Ok(())
}

fn build(dir: &Path, flags: &Flags) -> Result<(), String> {
    let project = project(dir, flags);
    let mut run = match flags.from {
        Some(stage) => {
            let id = run_id(dir, flags)?;
            println!("resuming {id} from stage {stage}");
            project.resume(&id, stage).map_err(|e| e.to_string())?
        }
        None if flags.run.is_some() => {
            return Err("--run only selects an existing run; add --from <stage> to resume it \
                 (or drop --run to start a new run)"
                .into());
        }
        None => project.start().map_err(|e| e.to_string())?,
    };
    while let Some(stage) = run.next_stage() {
        println!("stage {stage}...");
        run.advance().map_err(|e| e.to_string())?;
        let done = run.report().stages.last().expect("stage just ran");
        println!("  {} records in {} ms", done.records, done.wall_ms);
    }
    println!();
    print!("{}", run.report());
    if let Some(run_dir) = run.dir() {
        println!("run directory: {}", run_dir.display());
    }
    Ok(())
}

fn evaluate(dir: &Path, flags: &Flags) -> Result<(), String> {
    let id = run_id(dir, flags)?;
    let project = project(dir, flags);
    let mut run = project.resume(&id, Stage::Evaluate).map_err(|e| e.to_string())?;
    run.complete().map_err(|e| e.to_string())?;
    for report in run.evaluation().expect("run evaluated").reports.values() {
        println!("{report}");
    }
    print!("{}", run.report());
    Ok(())
}

/// The deployment name a project directory implies (its basename, the
/// same rule [`project`] uses) — fixes where the obslog lives:
/// `<dir>/registry/<name>/obslog`.
fn obslog_dir(dir: &Path) -> PathBuf {
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "overton".into());
    dir.join("registry").join(name).join("obslog")
}

/// Prints a monitor's obslog write failures, if it recorded any. A
/// failed append is a permanent gap in the durable history, so every
/// path that owns a monitor surfaces it instead of swallowing it.
fn report_log_failures(monitor: &Monitor) {
    if monitor.log_errors() > 0 {
        eprintln!(
            "overton: warning: {} obslog write failure(s); the windowed history has gaps \
             (last: {})",
            monitor.log_errors(),
            monitor.last_log_error().unwrap_or("unknown")
        );
    }
}

fn serve(dir: &Path, flags: &Flags) -> Result<(), String> {
    // Bind before anything expensive: a busy port or an unparseable
    // --listen address fails in milliseconds, naming the address, instead
    // of after a full artifact load.
    let listener = match &flags.listen {
        Some(addr) => Some(net::bind(addr).map_err(|e| e.to_string())?),
        None => {
            if flags.probe {
                return Err("--probe needs --listen".into());
            }
            None
        }
    };
    let id = run_id(dir, flags)?;
    let run_dir = dir.join("runs").join(&id);
    let server = load_server(&run_dir)?;

    // The run's persisted traffic baseline (written at evaluate) arms the
    // drift detectors; older runs serve without one. A baseline that
    // exists but does not parse is an error, not a silent downgrade —
    // otherwise drift detection would be off while looking on.
    let baseline_path = run_dir.join("baseline.json");
    let baseline: Option<TrafficBaseline> = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Some(
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?,
        ),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("cannot read {}: {e}", baseline_path.display())),
    };
    if flags.obs && baseline.is_none() {
        eprintln!(
            "overton: note: run {id} has no baseline.json; drift rules (psi/ks) will not fire"
        );
    }

    if let Some(listener) = listener {
        if flags.capture {
            return Err("--capture works in replay mode; drop --listen".into());
        }
        return serve_listen(dir, flags, listener, &id, server, baseline);
    }

    let records: Vec<overton::store::Record> = if flags.drift {
        // Seeded drifting live traffic: stationary at the training mix,
        // then the slice mix and vague-query rate ramp halfway through.
        let n = flags.requests.unwrap_or(2000);
        let kb = KnowledgeBase::standard();
        let config = DriftConfig {
            base: TrafficConfig { seed: flags.seed.unwrap_or(0), ..Default::default() },
            drift_start: n / 2,
            drift_ramp: n / 8,
            ..Default::default()
        };
        DriftingTrafficStream::new(&kb, config).records(n)
    } else {
        // Serve the run's own test split as stand-in traffic, from the
        // sealed store persisted at ingest time — the data the artifact
        // was actually built on, immune to later edits of data.jsonl.
        let store = ShardedStore::read_dir(run_dir.join("store")).map_err(|e| e.to_string())?;
        let mut rows = store.index().test_rows().to_vec();
        if let Some(n) = flags.requests {
            rows.truncate(n);
        }
        if rows.is_empty() {
            return Err(format!("run {id} has no test-tagged records to serve"));
        }
        rows.into_iter()
            .map(|row| store.get(row as usize).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?
    };

    let (pool, mut monitor) = start_pool(dir, flags, server, baseline)?;

    // Serve in window-sized chunks so the monitor drains its channel
    // between bursts (the pool never waits on it either way).
    let total = records.len();
    let chunk = flags.window.unwrap_or(250).max(1) as usize;
    let mut errors = 0usize;
    for burst in records.chunks(chunk) {
        let replies = pool.process(burst.to_vec());
        errors += replies.iter().filter(|r| r.result.is_err()).count();
        if let Some(m) = monitor.as_mut() {
            m.pump();
        }
    }
    println!("served {total} requests from run {id} ({errors} errors)");
    println!("{}", pool.snapshot());
    if let Some(m) = monitor.as_mut() {
        m.pump();
        println!(
            "windows: {} closed ({} in the open window; {} samples dropped)",
            m.stats().closed(),
            m.stats().open_count(),
            pool.telemetry().observer_dropped()
        );
        if m.alerts().is_empty() {
            println!("alerts: none");
        } else {
            println!("alerts:");
            for alert in m.alerts() {
                println!("  {alert}");
            }
        }
        report_log_failures(m);
        // The capture half of the closed loop: gold-labeled traffic from
        // watchdog-escalated slices lands in the live store, where
        // `overton compact` and the next incremental retrain pick it up.
        if flags.capture {
            let watchdog = Watchdog::new(WatchdogConfig::default());
            let flagged = watchdog.flagged_slices(m);
            if flagged.is_empty() {
                println!("capture: no sustained alerts; nothing captured");
            } else {
                let live = open_or_create_live(dir)?;
                let captured =
                    watchdog.capture_into(m, &records, &live).map_err(|e| e.to_string())?;
                let generation = live.flush().map_err(|e| e.to_string())?;
                println!(
                    "capture: {captured} gold record(s) from {} slice(s) [{}] appended to {} \
                     (generation {generation})",
                    flagged.len(),
                    flagged.join(", "),
                    live.dir().display()
                );
            }
        }
        println!("replay the history with: overton monitor {}", dir.display());
    }
    pool.shutdown();
    Ok(())
}

/// Loads the run's deployable artifact into a [`Server`].
fn load_server(run_dir: &Path) -> Result<Server, String> {
    let artifact_path = run_dir.join("artifact.model.json");
    let bytes = std::fs::read(&artifact_path)
        .map_err(|e| format!("cannot read {}: {e}", artifact_path.display()))?;
    let artifact = DeployableModel::from_bytes(&bytes).map_err(|e| e.to_string())?;
    Ok(Server::load(&artifact))
}

/// Starts the worker pool over the run's artifact and, under `--obs`,
/// attaches the monitor that writes the project's obslog.
fn start_pool(
    dir: &Path,
    flags: &Flags,
    server: Server,
    baseline: Option<TrafficBaseline>,
) -> Result<(WorkerPool, Option<Monitor>), String> {
    let engine = Arc::new(CascadeEngine::single(server));
    let config = ServingConfig { workers: flags.workers.unwrap_or(4), ..ServingConfig::default() };
    let pool = WorkerPool::start(engine, config, baseline);
    if !flags.obs {
        return Ok((pool, None));
    }
    let obs_config = ObsConfig {
        window_len: flags.window.unwrap_or(250),
        rules: default_rules(pool.telemetry().slice_names()),
        ..Default::default()
    };
    let log_dir = obslog_dir(dir);
    let monitor = Monitor::attach(&pool, obs_config, Some(&log_dir))
        .map_err(|e| format!("cannot attach monitor: {e}"))?;
    println!("observing: obslog at {}", log_dir.display());
    Ok((pool, Some(monitor)))
}

/// Set by the SIGTERM/SIGINT handlers; the serve loop polls it and
/// drains when it flips.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // A store to a static atomic is async-signal-safe; everything else
    // (draining, printing) happens back on the main thread.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_drain_signals() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        // Declared directly — the workspace carries no libc crate, and
        // `signal` is all the socket tier needs from it.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// `overton serve --listen`: the socket tier over the run's artifact.
fn serve_listen(
    dir: &Path,
    flags: &Flags,
    listener: TcpListener,
    id: &str,
    server: Server,
    baseline: Option<TrafficBaseline>,
) -> Result<(), String> {
    let (pool, monitor) = start_pool(dir, flags, server, baseline)?;
    let pool = Arc::new(pool);
    // The monitor is shared between the pump loop (this thread) and the
    // `/metrics` scrape hook (connection handlers), so it lives behind a
    // mutex; handlers only take it for the duration of one exposition
    // render, never on the predict path.
    let monitor = monitor.map(|m| Arc::new(std::sync::Mutex::new(m)));
    let pump = |m: &Arc<std::sync::Mutex<Monitor>>| {
        if let Ok(mut m) = m.lock() {
            m.pump();
        }
    };

    let mut net_config = NetConfig::default();
    if let Some(high_water) = flags.high_water {
        net_config.shed.queue_high_water = high_water;
    }
    if let Some(max_conns) = flags.max_conns {
        net_config.max_connections = max_conns;
    }
    if let Some(m) = &monitor {
        // The meter-aware hook re-reads <dir>/meter.json per scrape, so
        // `overton_meter_budget_remaining` tracks retrains running
        // alongside the server (the gauge is simply absent until a build
        // starts the ledger).
        net_config.metrics_ext = Some(overton::obs::metrics_ext_with_meter(
            Arc::clone(m),
            dir.join(overton::stats::METER_FILE),
        ));
    }
    let net =
        NetServer::start(listener, Arc::clone(&pool), net_config).map_err(|e| e.to_string())?;
    println!("listening on {} (run {id})", net.local_addr());

    if flags.probe {
        probe(dir, flags, net.local_addr())?;
    } else {
        install_drain_signals();
        println!("serving; SIGTERM or Ctrl-C drains");
        while !SHUTDOWN.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(100));
            if let Some(m) = &monitor {
                pump(m);
            }
        }
        println!("draining: refusing new connections, finishing in-flight requests");
    }
    net.drain();
    if let Some(m) = &monitor {
        pump(m);
    }
    print!("{}", pool.snapshot());
    if let Some(m) = &monitor {
        if let Ok(m) = m.lock() {
            println!(
                "windows: {} closed ({} in the open window; {} samples dropped)",
                m.stats().closed(),
                m.stats().open_count(),
                pool.telemetry().observer_dropped()
            );
            report_log_failures(&m);
        }
    }
    println!("drained");
    // The net server and its handlers are gone; this is the last Arc, so
    // dropping the pool joins the workers.
    drop(monitor);
    drop(pool);
    Ok(())
}

/// One loopback round-trip through the socket with records from the
/// run's test split — proves bind/accept/parse/route/predict/drain all
/// work without any external client (the CI smoke path), and that every
/// answer equals the artifact's in-process `predict_batch`.
fn probe(dir: &Path, flags: &Flags, addr: std::net::SocketAddr) -> Result<(), String> {
    let id = run_id(dir, flags)?;
    let run_dir = dir.join("runs").join(&id);
    let store = ShardedStore::read_dir(run_dir.join("store")).map_err(|e| e.to_string())?;
    let mut rows = store.index().test_rows().to_vec();
    rows.truncate(flags.requests.unwrap_or(4).max(1));
    if rows.is_empty() {
        return Err(format!("run {id} has no test-tagged records to probe with"));
    }
    let records: Vec<overton::store::Record> = rows
        .into_iter()
        .map(|row| store.get(row as usize).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
    if !client.health().map_err(|e| e.to_string())? {
        return Err("probe: server reports draining before any drain was requested".into());
    }
    let n = records.len();
    match client.predict(&records).map_err(|e| e.to_string())? {
        PredictOutcome::Answered(results) => {
            if results.len() != n {
                return Err(format!("probe sent {n} records, got {} results", results.len()));
            }
            if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
                return Err(format!("probe record failed: {err}"));
            }
            // Every answer must be the one the artifact gives in process,
            // whichever path (queued or inline) served it.
            let want = load_server(&run_dir)?.predict_batch(&records);
            for (i, (got, want)) in results.iter().zip(&want).enumerate() {
                if got.as_ref().ok() != want.as_ref().ok() {
                    return Err(format!("probe record {i}: socket answer differs from in-process"));
                }
            }
            println!("probe round-trip ok ({n} records answered)");
        }
        PredictOutcome::Shed { .. } => {
            return Err("probe was shed by an otherwise idle server".into())
        }
    }

    // Traced round-trip: name the trace, assert the id echoes back, and
    // fetch the retained spans — all eight request-path stages, starts in
    // causal order.
    let trace_id = "probe-trace";
    let (outcome, echoed) =
        client.predict_traced(&records[..1], Some(trace_id)).map_err(|e| e.to_string())?;
    if !matches!(outcome, PredictOutcome::Answered(_)) {
        return Err("traced probe was shed by an otherwise idle server".into());
    }
    if echoed.as_deref() != Some(trace_id) {
        return Err(format!("probe sent trace id {trace_id:?}, response echoed {echoed:?}"));
    }
    let report =
        client.trace(trace_id).map_err(|e| format!("probe: GET /trace/{trace_id}: {e}"))?;
    let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    let expected: Vec<&str> = overton::serving::SpanName::ALL.iter().map(|s| s.name()).collect();
    if names != expected {
        return Err(format!("probe trace spans {names:?}, expected {expected:?}"));
    }
    let mut prev = 0;
    for span in &report.spans {
        if span.start_micros < prev {
            return Err(format!("probe trace span starts not monotonic: {:?}", report.spans));
        }
        prev = span.start_micros;
    }
    println!("trace round-trip ok ({} spans)", report.spans.len());

    // Scrape /metrics: the exposition must parse line-by-line and carry
    // the shed counter (satellite of the CI smoke).
    let text = client.metrics().map_err(|e| e.to_string())?;
    overton::serving::validate_exposition(&text)
        .map_err(|e| format!("probe: /metrics failed exposition grammar: {e}"))?;
    if !text.contains("overton_requests_shed_total") {
        return Err("probe: /metrics is missing overton_requests_shed_total".into());
    }
    println!("metrics scrape ok ({} lines)", text.lines().count());
    Ok(())
}

fn monitor(dir: &Path, flags: &Flags) -> Result<(), String> {
    let log_dir = obslog_dir(dir);
    let monitor = ObsLog::replay(&log_dir).map_err(|e| {
        format!("cannot replay {}: {e} (serve with --obs first)", log_dir.display())
    })?;
    if flags.csv {
        let mut out = Vec::new();
        monitor.stats().write_csv(&mut out).map_err(|e| e.to_string())?;
        print!("{}", String::from_utf8_lossy(&out));
        return Ok(());
    }
    println!("obslog: {}", log_dir.display());
    report_log_failures(&monitor);
    let stats = monitor.stats();
    println!(
        "windows: {} closed, {} retained (window_len {}, {} evicted)",
        stats.closed(),
        stats.windows().count(),
        stats.window_len(),
        stats.evicted()
    );
    let names = stats.slice_names().to_vec();
    print!(
        "{:>7} {:>7} {:>6} {:>6} {:>9} {:>18} {:>9}",
        "window", "count", "errors", "conf", "gold_acc", "gold_acc_95ci", "p95"
    );
    for name in &names {
        print!(" {name:>24}");
    }
    println!();
    for w in stats.windows() {
        // Clopper-Pearson bounds on the window's gold accuracy, so a
        // "drop" over a thin window reads as the wide interval it is.
        let ci = (w.overall.gold_scored > 0).then(|| {
            let successes = (w.overall.gold_correct_millionths as f64 / 1e6).round() as u64;
            overton::stats::clopper_pearson(
                successes,
                w.overall.gold_scored,
                overton::stats::DEFAULT_ALPHA,
            )
        });
        print!(
            "{:>7} {:>7} {:>6} {:>6.3} {:>9} {:>18} {:>9?}",
            w.index,
            w.overall.count,
            w.overall.errors,
            w.overall.mean_confidence(),
            w.overall.gold_accuracy().map_or_else(|| "-".to_string(), |a| format!("{a:.3}")),
            ci.map_or_else(|| "-".to_string(), |ci| ci.to_string()),
            w.latency_quantile(0.95)
        );
        for (i, _) in names.iter().enumerate() {
            print!(" {:>23.1}%", w.slice_share(i) * 100.0);
        }
        println!();
    }
    if monitor.alerts().is_empty() {
        println!("alerts: none");
    } else {
        println!("alerts ({}):", monitor.alerts().len());
        for alert in monitor.alerts() {
            println!("  {alert}");
        }
    }
    let active = monitor.active_alerts();
    if active.is_empty() {
        println!("active: none");
    } else {
        println!("active ({}):", active.len());
        for a in &active {
            println!(
                "  {} {} breaching for {} windows (value {:.4}, threshold {:.4})",
                a.rule.signal,
                a.rule.slice.as_deref().unwrap_or("overall"),
                a.windows_active,
                a.value,
                a.rule.threshold
            );
        }
    }
    Ok(())
}

/// `overton meter <dir>`: the project's test-set reuse budget ledger —
/// how much statistical validity the holdout has left (every `overton
/// build`/`evaluate` debits one look).
fn meter(dir: &Path) -> Result<(), String> {
    let path = dir.join(overton::stats::METER_FILE);
    let ledger = overton::stats::MeterLedger::load(&path).map_err(|e| {
        format!("cannot read {}: {e} (run `overton build` to start the ledger)", path.display())
    })?;
    println!("meter: {}", path.display());
    println!(
        "budget: {} initial, {} spent, {} remaining",
        ledger.initial(),
        ledger.spent(),
        ledger.remaining()
    );
    for debit in ledger.debits() {
        println!("  debit {:>4} {}", debit.amount, debit.run_id);
    }
    if ledger.exhausted() {
        println!(
            "WARNING: budget exhausted — holdout conclusions are no longer statistically \
             trustworthy; collect a fresh test split"
        );
    }
    Ok(())
}

/// `overton trace`: render spans — a run directory's `trace.jsonl`
/// (build-side stage spans) or a live server's retained request traces
/// over the socket. Both sides emit the same `Span` schema, so one
/// waterfall renderer covers both.
fn trace(dir: &Path, flags: &Flags) -> Result<(), String> {
    let target = dir.to_string_lossy();
    match target.parse::<std::net::SocketAddr>() {
        Ok(addr) => trace_net(addr, flags),
        Err(_) => trace_run(dir, flags),
    }
}

/// Dir mode: the stage spans `overton build` appended to the run's
/// `trace.jsonl`.
fn trace_run(dir: &Path, flags: &Flags) -> Result<(), String> {
    let id = run_id(dir, flags)?;
    let path = dir.join("runs").join(&id).join("trace.jsonl");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run `overton build` first)", path.display()))?;
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let span: overton::serving::Span = serde_json::from_str(line)
            .map_err(|e| format!("{}: line {}: {e}", path.display(), i + 1))?;
        spans.push(span);
    }
    println!("run {id}: {} stage span(s)", spans.len());
    print_spans(&spans);
    Ok(())
}

/// Socket mode: the server's slowest-request retention, or one trace by
/// id with `--id`.
fn trace_net(addr: std::net::SocketAddr, flags: &Flags) -> Result<(), String> {
    let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
    if let Some(id) = &flags.id {
        let report = client.trace(id).map_err(|e| e.to_string())?;
        println!(
            "trace {}: outcome {}, {} record(s), {:.3} ms total",
            report.id,
            report.outcome,
            report.records,
            report.total_micros as f64 / 1000.0
        );
        print_spans(&report.spans);
        return Ok(());
    }
    let slowest = client.traces().map_err(|e| e.to_string())?;
    if slowest.is_empty() {
        println!("no traces retained yet (server idle, tracing disabled, or sampled out)");
        return Ok(());
    }
    println!("slowest {} trace(s) on {addr}:", slowest.len());
    println!("{:>18}  {:>8}  {:>8}  {:>10}", "id", "outcome", "records", "total_ms");
    for t in &slowest {
        println!(
            "{:>18}  {:>8}  {:>8}  {:>10.3}",
            t.id,
            t.outcome,
            t.records,
            t.total_micros as f64 / 1000.0
        );
    }
    println!("render one with: overton trace {addr} --id <id>");
    Ok(())
}

/// Spans as a fixed-width waterfall: name, wall time, and a bar placed
/// at the span's offset within the trace.
fn print_spans(spans: &[overton::serving::Span]) {
    const WIDTH: u64 = 48;
    let total = spans.iter().map(|s| s.end_micros).max().unwrap_or(0).max(1);
    for span in spans {
        let lead = (span.start_micros * WIDTH / total) as usize;
        let fill = ((span.wall_micros() * WIDTH / total).max(1) as usize).min(WIDTH as usize);
        println!(
            "{:>16} {:>10.3} ms  {}{}",
            span.name,
            span.wall_micros() as f64 / 1000.0,
            " ".repeat(lead),
            "#".repeat(fill),
        );
    }
}

/// Where a project directory keeps its live store.
fn live_dir(dir: &Path) -> PathBuf {
    dir.join("live")
}

/// Opens the project's live store, creating it (from `<dir>/schema.json`)
/// on first use.
fn open_or_create_live(dir: &Path) -> Result<LiveStore, String> {
    let live = live_dir(dir);
    if live.join(LIVE_MANIFEST).exists() {
        LiveStore::open(&live).map_err(|e| e.to_string())
    } else {
        let schema_path = dir.join("schema.json");
        let schema = Schema::from_json_file(&schema_path)
            .map_err(|e| format!("{}: {e}", schema_path.display()))?;
        LiveStore::create(&live, schema).map_err(|e| e.to_string())
    }
}

/// `overton append <dir> <file>`: stream a JSONL file into the project's
/// live store and seal it as a delta segment.
fn append(dir: &Path, file: &Path) -> Result<(), String> {
    let live = open_or_create_live(dir)?;
    let reader = std::fs::File::open(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let appended = live.append_jsonl(reader).map_err(|e| format!("{}: {e}", file.display()))?;
    let generation = live.flush().map_err(|e| e.to_string())?;
    println!(
        "appended {appended} records to {} (generation {generation}, {} sealed rows, {} deltas)",
        live.dir().display(),
        live.sealed_rows(),
        live.num_deltas()
    );
    Ok(())
}

/// `overton compact <dir>`: merge the live store's sealed deltas into its
/// base segment.
fn compact(dir: &Path) -> Result<(), String> {
    let path = live_dir(dir);
    let live = LiveStore::open(&path)
        .map_err(|e| format!("{}: {e} (run `overton append` first)", path.display()))?;
    let deltas = live.num_deltas();
    if deltas == 0 {
        println!("{}: no deltas to compact (generation {})", path.display(), live.generation());
        return Ok(());
    }
    let generation = live.compact().map_err(|e| e.to_string())?;
    println!(
        "compacted {deltas} delta(s) into the base: generation {generation}, {} rows",
        live.sealed_rows()
    );
    Ok(())
}

/// `overton store verify <dir>`: checksum-verify every segment of a live
/// store (base + deltas) or plain sealed store directory, printing
/// per-segment status. Accepts the store directory itself or a project
/// directory holding one at `<dir>/live`.
fn store_verify(dir: &Path) -> Result<(), String> {
    let target = if dir.join(LIVE_MANIFEST).exists() || dir.join("manifest.json").exists() {
        dir.to_path_buf()
    } else if live_dir(dir).join(LIVE_MANIFEST).exists() {
        live_dir(dir)
    } else {
        return Err(format!(
            "{}: neither a live store, a sealed store, nor a project with one at live/",
            dir.display()
        ));
    };
    let report = overton::store::live::verify_dir(&target).map_err(|e| e.to_string())?;
    if let Some(generation) = report.generation {
        println!("{}: live store at generation {generation}", target.display());
    } else {
        println!("{}: sealed store", target.display());
    }
    for segment in &report.segments {
        if segment.ok {
            println!("  ok      {:<24} {}", segment.name, segment.detail);
        } else {
            println!("  FAILED  {:<24} {}", segment.name, segment.detail);
        }
    }
    if report.ok() {
        println!("all {} segment(s) verified", report.segments.len());
        Ok(())
    } else {
        Err(format!(
            "{} of {} segment(s) failed verification",
            report.segments.iter().filter(|s| !s.ok).count(),
            report.segments.len()
        ))
    }
}

fn report(dir: &Path, flags: &Flags) -> Result<(), String> {
    let id = run_id(dir, flags)?;
    let run_dir = dir.join("runs").join(&id);
    let report_path = run_dir.join("report.json");
    let text = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    let report: overton::RunReport =
        serde_json::from_str(&text).map_err(|e| format!("report.json: {e}"))?;
    print!("{report}");
    let eval_path = run_dir.join("evaluation.json");
    if let Ok(text) = std::fs::read_to_string(&eval_path) {
        let reports: BTreeMap<String, QualityReport> =
            serde_json::from_str(&text).map_err(|e| format!("evaluation.json: {e}"))?;
        println!();
        for report in reports.values() {
            println!("{report}");
        }
    }
    Ok(())
}
