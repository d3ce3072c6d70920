//! `relocate`: the paper's sensor-aggregation flow (Fig. 13/14).
//!
//! Set-up builds the sensor "machines" — each its own daemon and PM
//! directory — lets every one observe once, and exports its state. A pass
//! then imports each export into the home daemon (`puddled::importexport`
//! copies the puddles and assigns fresh addresses), maps it (`core::reloc`
//! rewrites the pointers), merges it into the home state, and drops the
//! imported pool again; it ends with one export of the home state. Without
//! the drop the home registry grows with every pass and so does the cost of
//! the next import, and there is no steady state to measure.

use super::{service_series, Ctx, Metrics, Verdict, Window, Workload};
use crate::env::DirGuard;
use crate::probes::Probe;
use crate::stats::{self, process_cpu_ns};
use crate::trace::Tracer;
use pm_datastructures::sensor::SensorState;
use puddled::{Daemon, DaemonConfig};
use puddles::PuddleClient;
use std::path::PathBuf;
use std::time::Instant;

const HOME_POOL: &str = "home";

pub struct Relocate {
    home: SensorState,
    client: PuddleClient,
    daemon: Daemon,
    exports: Vec<PathBuf>,
    home_export: PathBuf,
    vars: u64,
    passes: u64,
    import_ns: Vec<u64>,
    export_ns: Vec<u64>,
    drop_ns: Vec<u64>,
    _dir: DirGuard,
}

impl Relocate {
    /// Makes the final check expect a total the home state does not hold.
    #[cfg(test)]
    pub fn corrupt_expectation(&mut self) {
        self.passes += 1;
    }
}

impl Workload for Relocate {
    /// Set-up allocates every `StateVar`; each import allocates space.
    const PROBES: &'static [Probe] = &[Probe::Heap, Probe::SpaceAlloc];

    fn setup(ctx: &Ctx<'_>, _seed: u64) -> Self {
        let dir = ctx.root.fresh_dir("reloc");
        let machines: u64 = ctx.pick(8, 2);
        let vars: u64 = ctx.pick(4_000, 50);
        let exports = (0..machines)
            .map(|node| {
                let machine_dir = dir.join(format!("machine{node}"));
                let daemon =
                    Daemon::start(DaemonConfig::for_testing(&machine_dir)).expect("start machine");
                let client = PuddleClient::connect_local(&daemon).expect("connect");
                let state = SensorState::create(&client, "state", vars).expect("sensor state");
                // Variable `id` of machine `node` now reads `node + id`.
                state.observe(node).expect("observe");
                let dest = dir.join(format!("export{node}"));
                state.export(&dest).expect("export sensor state");
                drop((state, client, daemon));
                let _ = std::fs::remove_dir_all(machine_dir);
                dest
            })
            .collect();
        let daemon =
            Daemon::start(DaemonConfig::for_testing(dir.join("home"))).expect("start home daemon");
        let client = PuddleClient::connect_local(&daemon).expect("connect");
        let home = SensorState::create(&client, HOME_POOL, vars).expect("home state");
        Relocate {
            home,
            client,
            daemon,
            exports,
            home_export: dir.join("export_home"),
            vars,
            passes: 0,
            import_ns: Vec::new(),
            export_ns: Vec::new(),
            drop_ns: Vec::new(),
            _dir: DirGuard(dir),
        }
    }

    /// One pass: every export aggregated, then the home state exported.
    fn window(&mut self, tracer: &mut Tracer) -> Window {
        let mut lat_ns = Vec::with_capacity(self.exports.len());
        let mut failed = 0u64;
        let (client, home) = (&self.client, &self.home);
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        for (node, export) in self.exports.iter().enumerate() {
            tracer.next_op();
            let name = format!("import{node}");
            let op0 = Instant::now();
            let imported = tracer.span("core.client.import_pool", 1, |_| {
                client.import_pool(export, &name)
            });
            self.import_ns.push(op0.elapsed().as_nanos() as u64);
            let merged = imported.and_then(|pool| {
                pool.ensure_all_mapped()?;
                let state = SensorState::open(client, pool);
                tracer.span("datastructures.sensor.aggregate", 1, |_| {
                    home.aggregate_from(&state)
                })
            });
            let d0 = Instant::now();
            let dropped = tracer.span("core.client.drop_pool", 1, |_| client.drop_pool(&name));
            self.drop_ns.push(d0.elapsed().as_nanos() as u64);
            failed += u64::from(merged.is_err() || dropped.is_err());
            lat_ns.push(op0.elapsed().as_nanos() as u64);
        }
        let e0 = Instant::now();
        let exported = tracer.span("core.client.export_pool", 1, |_| {
            client.export_pool(HOME_POOL, &self.home_export)
        });
        self.export_ns.push(e0.elapsed().as_nanos() as u64);
        failed += u64::from(exported.is_err());
        self.passes += 1;
        Window {
            ops: self.exports.len() as u64,
            failed,
            wall_ns: t0.elapsed().as_nanos() as u64,
            cpu_ns: process_cpu_ns() - cpu0,
            prep_ns: 0,
            lat_ns,
        }
    }

    fn begin_measure(&mut self) {
        self.import_ns.clear();
        self.export_ns.clear();
        self.drop_ns.clear();
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Metrics) {
        let ms = |samples: &mut Vec<u64>| stats::p50(samples) as f64 / 1e6;
        out.insert("core.client.import_ms", ms(&mut self.import_ns));
        out.insert("core.client.export_ms", ms(&mut self.export_ns));
        out.insert("core.client.drop_pool_ms", ms(&mut self.drop_ns));
        out.insert(
            "datastructures.sensor.aggregate_ms",
            tracer
                .totals("datastructures.sensor.aggregate")
                .ns_per_unit()
                / 1e6,
        );
        let report = self.client.metrics().expect("daemon metrics");
        service_series(&report, out);
        // `import_pool` is the daemon's `ImportPool` (copy the puddle files,
        // assign addresses) and then, in the library, mapping the pool,
        // which is where the pointers are rewritten. There is no socket in
        // between, so the difference of the two medians is the second part.
        if let Some(service) = report.series("service.ImportPool") {
            let import_ms = out["core.client.import_ms"];
            out.insert(
                "core.reloc.map_rewrite_ms",
                (import_ms - service.p50_nanos as f64 / 1e6).max(0.0),
            );
        }
        let stats = self.client.stats().expect("daemon stats");
        out.insert(
            "puddled.alloc.fragmentation_bp",
            stats.fragmentation_bp as f64,
        );
    }

    /// Every home variable must hold the sum of what the passes merged into
    /// it, and only the home pool may be left.
    fn finish(self) -> Verdict {
        let mut verdict = Verdict::default();
        let machines = self.exports.len() as u64;
        // One pass adds `node + id` for every machine `node`.
        let per_pass = |id: u64| machines * (machines - 1) / 2 + machines * id;
        let snapshot = self.home.snapshot();
        verdict.check(snapshot.len() as u64 == self.vars, || {
            format!(
                "home has {} variables, expected {}",
                snapshot.len(),
                self.vars
            )
        });
        for (id, value) in snapshot {
            let want = self.passes * per_pass(id);
            verdict.check(value == want, || {
                format!("home variable {id} is {value}, expected {want}")
            });
        }
        let stats = self.client.stats().expect("daemon stats");
        verdict.check(stats.pools == 1, || {
            format!("{} pools left, expected only the home pool", stats.pools)
        });
        verdict.invariants(&self.daemon);
        verdict
    }
}
