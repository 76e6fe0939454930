//! Rendering and export of watchtower results: the per-window rollup
//! table, the incident timeline, and the `tenant`/`window`-labelled
//! Prometheus export.
//!
//! Everything rendered here is a deterministic function of virtual-time
//! figures, so the text is byte-identical across `HCC_ENGINE_THREADS`
//! (the soak matrix, `tests/perturbation`, renders it on 1- and 4-thread
//! engines).

use std::fmt::Write as _;

use hcc_trace::critpath::ResourceClass;
use hcc_trace::rollup::WindowStats;
use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{LatencyBudget, SimTime, StormIntensity};

use super::WatchConfig;

/// One tenant's budget consumption inside one fast window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantBurn {
    /// Bad events (rejections + p99 misses) settled in the window.
    pub bad: u64,
    /// Everything the tenant settled in the window.
    pub total: u64,
    /// Fast-window burn rate, milli-x.
    pub fast_milli: u64,
    /// Trailing slow-window burn rate, milli-x.
    pub slow_milli: u64,
    /// Whether the multi-window rule fired here.
    pub alert: bool,
}

/// One fast window's full rollup: aggregate stats, queue reading, and
/// per-tenant burns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// Cross-tenant completion/rejection/latency rollup.
    pub stats: WindowStats,
    /// Mean queue depth over the window, in thousandths of a request.
    pub queue_mean_milli: u64,
    /// Whether the queue mean crossed the anomaly factor.
    pub anomaly: bool,
    /// Per-tenant burns, in population order.
    pub burns: Vec<TenantBurn>,
}

/// The storm episode an incident overlapped (hottest intensity wins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentStorm {
    /// Storm profile name.
    pub profile: String,
    /// Hottest intensity any incident window's midpoint sat in.
    pub intensity: StormIntensity,
    /// 1-based episode ordinal in the calendar.
    pub episode: u32,
}

/// The dominant critical-path resource among an incident's completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentBlame {
    /// Resource class with the largest summed critical time.
    pub class: ResourceClass,
    /// Its summed critical time.
    pub critical: hcc_types::SimDuration,
    /// Its share of the total, in whole percent.
    pub pct: u64,
}

/// One coalesced streak of alerting windows for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// 1-based position in the timeline (chronological).
    pub id: usize,
    /// Tenant index into the report's `tenant_names`.
    pub tenant: usize,
    /// First alerting window index.
    pub first_window: usize,
    /// Last alerting window index (inclusive).
    pub last_window: usize,
    /// Virtual start of the first alerting window.
    pub start: SimTime,
    /// Virtual end of the last alerting window.
    pub end: SimTime,
    /// Highest fast-window burn inside the streak, milli-x.
    pub peak_burn_milli: u64,
    /// Storm correlation (None when every window midpoint was calm or
    /// no calendar was supplied).
    pub storm: Option<IncidentStorm>,
    /// Critical-path blame (None when nothing completed inside).
    pub blame: Option<IncidentBlame>,
    /// Flight-recorder exemplar request ids settling inside the
    /// incident's span, worst first (empty when the flight plane was
    /// off). Render-neutral: only the JSON export and `hcc_lab why`
    /// surface these — see [`WatchReport::link_exemplars`].
    pub exemplars: Vec<u32>,
}

/// The full watchtower output for one soak.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchReport {
    /// The knobs that produced this report.
    pub cfg: WatchConfig,
    /// Tenant labels, in population order.
    pub tenant_names: Vec<String>,
    /// Per-tenant budgets, aligned with `tenant_names`.
    pub budgets: Vec<LatencyBudget>,
    /// One row per fast window, chronological.
    pub windows: Vec<WindowRow>,
    /// Chronological incident timeline.
    pub incidents: Vec<Incident>,
}

/// Formats a milli-x burn rate as `N.Dx` (one decimal).
fn fmt_burn(milli: u64) -> String {
    format!("{}.{}x", milli / 1_000, (milli % 1_000) / 100)
}

/// Formats a virtual instant as whole+tenths seconds.
fn fmt_secs(t: SimTime) -> String {
    let ds = t.as_nanos() / 100_000_000; // deciseconds
    format!("{}.{}s", ds / 10, ds % 10)
}

impl WatchReport {
    /// Total `(tenant, window)` alerts.
    pub fn alerts(&self) -> u64 {
        self.windows
            .iter()
            .flat_map(|w| &w.burns)
            .filter(|b| b.alert)
            .count() as u64
    }

    /// Windows flagged as queue anomalies.
    pub(crate) fn anomalies(&self) -> u64 {
        self.windows.iter().filter(|w| w.anomaly).count() as u64
    }

    /// Highest fast-window burn anywhere in the soak, milli-x.
    pub fn max_burn_milli(&self) -> u64 {
        self.windows
            .iter()
            .flat_map(|w| &w.burns)
            .map(|b| b.fast_milli)
            .max()
            .unwrap_or(0)
    }

    /// Incidents that overlapped a storm episode.
    pub fn storm_correlated(&self) -> usize {
        self.incidents.iter().filter(|i| i.storm.is_some()).count()
    }

    /// Links every incident to the flight log's exemplar request ids
    /// settling inside its span (the incident tenant's ids first; any
    /// tenant as the fallback, so a non-empty log always yields a
    /// concrete request to feed `why --request`). Never touches
    /// `render()`: the text timeline stays byte-identical to a
    /// flight-free soak.
    pub(crate) fn link_exemplars(&mut self, flight: &hcc_trace::FlightLog) {
        for inc in &mut self.incidents {
            let own = flight.exemplars_between(Some(inc.tenant as u32), inc.start, inc.end);
            inc.exemplars = if own.is_empty() {
                flight.exemplars_between(None, inc.start, inc.end)
            } else {
                own
            };
        }
    }

    /// Renders the rollup table, incident timeline, and trailer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "windows fast {} x{} | slow {} (x{}) | alert >={} both-window burn | anomaly >={} queue mean",
            self.cfg.fast,
            self.windows.len(),
            self.cfg.pair().slow(),
            self.cfg.slow_factor,
            fmt_burn(self.cfg.threshold_milli),
            fmt_burn(self.cfg.anomaly_milli),
        );
        for (name, b) in self.tenant_names.iter().zip(&self.budgets) {
            let _ = writeln!(
                out,
                "budget {:<10} {} | error budget {}ppm",
                name,
                b,
                b.error_budget_ppm()
            );
        }

        let _ = writeln!(out);
        let _ = write!(
            out,
            "{:>6} {:>15} {:>6} {:>5} {:>10} {:>10} {:>10} {:>8} {:>8}",
            "window", "span", "n", "rej", "p50", "p99", "p999", "thr/s", "q.mean"
        );
        for name in &self.tenant_names {
            let _ = write!(out, " {:>10}", format!("{name}-burn"));
        }
        let _ = writeln!(out, " {:>5}", "flags");
        for row in &self.windows {
            let w = &row.stats.window;
            let _ = write!(
                out,
                "{:>6} {:>15} {:>6} {:>5} {:>10} {:>10} {:>10} {:>8.1} {:>8}",
                format!("w{:03}", w.index),
                format!("{}-{}", fmt_secs(w.start), fmt_secs(w.end)),
                row.stats.completed,
                row.stats.rejected,
                row.stats.p50.to_string(),
                row.stats.p99.to_string(),
                row.stats.p999.to_string(),
                row.stats.throughput_per_sec(),
                format!(
                    "{}.{:03}",
                    row.queue_mean_milli / 1_000,
                    row.queue_mean_milli % 1_000
                ),
            );
            for b in &row.burns {
                let cell = if b.total == 0 {
                    "-".to_string()
                } else {
                    format!(
                        "{}{}",
                        fmt_burn(b.fast_milli),
                        if b.alert { "!" } else { "" }
                    )
                };
                let _ = write!(out, " {cell:>10}");
            }
            let _ = writeln!(out, " {:>5}", if row.anomaly { "~" } else { "" });
        }

        let _ = writeln!(out, "\nincident timeline:");
        if self.incidents.is_empty() {
            let _ = writeln!(out, "  (no incidents)");
        }
        for inc in &self.incidents {
            let storm = match &inc.storm {
                Some(s) => format!("{}@{} ep{}", s.profile, s.intensity, s.episode),
                None => "none".to_string(),
            };
            let blame = match &inc.blame {
                Some(b) => format!("{} {}%", b.class.short(), b.pct),
                None => "none".to_string(),
            };
            let _ = writeln!(
                out,
                "  incident #{}: tenant {} | w{:03}..w{:03} | {}..{} | peak burn {} | storm {} | blame {}",
                inc.id,
                self.tenant_names[inc.tenant],
                inc.first_window,
                inc.last_window,
                fmt_secs(inc.start),
                fmt_secs(inc.end),
                fmt_burn(inc.peak_burn_milli),
                storm,
                blame,
            );
        }

        let _ = writeln!(
            out,
            "\nwatch: windows {} | alerts {} | anomalies {} | incidents {} | storm-correlated {} | max burn {}",
            self.windows.len(),
            self.alerts(),
            self.anomalies(),
            self.incidents.len(),
            self.storm_correlated(),
            fmt_burn(self.max_burn_milli()),
        );
        out
    }

    /// Prometheus-style text exposition with `tenant`/`window` labels.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE hcc_watch_window_p99_ns gauge");
        for row in &self.windows {
            let _ = writeln!(
                out,
                "hcc_watch_window_p99_ns{{window=\"{}\"}} {}",
                row.stats.window.index,
                row.stats.p99.as_nanos()
            );
        }
        let _ = writeln!(out, "# TYPE hcc_watch_window_settled gauge");
        for row in &self.windows {
            let _ = writeln!(
                out,
                "hcc_watch_window_settled{{window=\"{}\"}} {}",
                row.stats.window.index,
                row.stats.total()
            );
        }
        let _ = writeln!(out, "# TYPE hcc_watch_burn_milli gauge");
        for row in &self.windows {
            for (name, b) in self.tenant_names.iter().zip(&row.burns) {
                let _ = writeln!(
                    out,
                    "hcc_watch_burn_milli{{tenant=\"{}\",window=\"{}\"}} {}",
                    name, row.stats.window.index, b.fast_milli
                );
            }
        }
        let _ = writeln!(out, "# TYPE hcc_watch_alert gauge");
        for row in &self.windows {
            for (name, b) in self.tenant_names.iter().zip(&row.burns) {
                let _ = writeln!(
                    out,
                    "hcc_watch_alert{{tenant=\"{}\",window=\"{}\"}} {}",
                    name,
                    row.stats.window.index,
                    u64::from(b.alert)
                );
            }
        }
        let _ = writeln!(out, "# TYPE hcc_watch_incident_peak_burn_milli gauge");
        for inc in &self.incidents {
            let _ = writeln!(
                out,
                "hcc_watch_incident_peak_burn_milli{{incident=\"{}\",tenant=\"{}\"}} {}",
                inc.id, self.tenant_names[inc.tenant], inc.peak_burn_milli
            );
        }
        let _ = writeln!(out, "# TYPE hcc_watch_incidents_total counter");
        let _ = writeln!(out, "hcc_watch_incidents_total {}", self.incidents.len());
        let _ = writeln!(out, "# TYPE hcc_watch_alerts_total counter");
        let _ = writeln!(out, "hcc_watch_alerts_total {}", self.alerts());
        out
    }
}

hcc_types::impl_to_json!(TenantBurn {
    bad,
    total,
    fast_milli,
    slow_milli,
    alert
});

impl ToJson for WindowRow {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        let stats = &self.stats;
        out.obj(|o| {
            o.field("window", stats.window.index);
            o.field("start_ns", stats.window.start);
            o.field("end_ns", stats.window.end);
            o.field("completed", stats.completed);
            o.field("rejected", stats.rejected);
            o.field("p50_ns", stats.p50);
            o.field("p99_ns", stats.p99);
            o.field("p999_ns", stats.p999);
            o.field("queue_mean_milli", self.queue_mean_milli);
            o.field("anomaly", self.anomaly);
            o.field("burns", &self.burns);
        });
    }
}

impl ToJson for IncidentStorm {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("profile", &self.profile);
            o.field("intensity", self.intensity.name());
            o.field("episode", self.episode);
        });
    }
}

impl ToJson for IncidentBlame {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("class", self.class);
            o.field("pct", self.pct);
            o.field("critical_ns", self.critical);
        });
    }
}

impl ToJson for Incident {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("id", self.id);
            o.field("tenant", self.tenant);
            o.field("first_window", self.first_window);
            o.field("last_window", self.last_window);
            o.field("start_ns", self.start);
            o.field("end_ns", self.end);
            o.field("peak_burn_milli", self.peak_burn_milli);
            o.field("storm", &self.storm);
            o.field("blame", self.blame);
            o.field("exemplars", &self.exemplars);
        });
    }
}

impl ToJson for WatchReport {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("fast_ns", self.cfg.fast);
            o.field("slow_factor", self.cfg.slow_factor);
            o.field("threshold_milli", self.cfg.threshold_milli);
            o.field("anomaly_milli", self.cfg.anomaly_milli);
            o.field("tenants", &self.tenant_names);
            o.field("alerts", self.alerts());
            o.field("anomalies", self.anomalies());
            o.field("max_burn_milli", self.max_burn_milli());
            o.field("storm_correlated", self.storm_correlated());
            o.field("windows", &self.windows);
            o.field("incidents", &self.incidents);
        });
    }
}
