//! The job subsystem: typed requests, admission control, and the
//! dedup/fan-out layer between HTTP handlers and the sweep pool.
//!
//! A request names one or more (app × design) cells at one scale; each
//! cell becomes a [`SweepPoint`] whose content-addressed key (the same
//! key the on-disk cache uses) also identifies it for *in-flight
//! deduplication*: all concurrently submitted requests for one key
//! share a single [`PointTicket`], the simulation runs exactly once,
//! and every job holding the ticket reads the result. Keys whose
//! result is already on disk are served straight from the cache and
//! never touch the pool.

use ndpb_bench::json::Json;
use ndpb_bench::{Column, PointTicket, SweepPoint};
use ndpb_core::audit::AuditLevel;
use ndpb_core::config::SystemConfig;
use ndpb_core::design::DesignPoint;
use ndpb_workloads::{Scale, APP_NAMES, EXTRA_APP_NAMES};

/// A typed `/run` request: the cross product `apps × designs` at one
/// scale, with an optional audit-level override.
#[derive(Debug, Clone)]
pub(crate) struct RunRequest {
    /// Application names (validated against the workload registry).
    pub apps: Vec<String>,
    /// Design columns.
    pub columns: Vec<Column>,
    /// Workload scale (defaults to `tiny`).
    pub scale: Scale,
    /// Audit override; `None` keeps the config default.
    pub audit: Option<AuditLevel>,
}

fn parse_column(s: &str) -> Option<Column> {
    // Labels match `Column::label()` / the CLI tables; lowercase
    // aliases are accepted for hand-typed curl bodies.
    Some(match s.to_ascii_uppercase().as_str() {
        "C" => Column::Ndp(DesignPoint::C),
        "B" => Column::Ndp(DesignPoint::B),
        "W" => Column::Ndp(DesignPoint::W),
        "O" => Column::Ndp(DesignPoint::O),
        "R" => Column::Ndp(DesignPoint::R),
        "W+ADV" => Column::Ndp(DesignPoint::WAdv),
        "W+FINE" => Column::Ndp(DesignPoint::WFine),
        "W+HOT" => Column::Ndp(DesignPoint::WHot),
        "W+BYTE" => Column::Ndp(DesignPoint::WByte),
        "W+LENT" => Column::Ndp(DesignPoint::WLent),
        "W+GA" => Column::Ndp(DesignPoint::WGather),
        "O+GA" => Column::Ndp(DesignPoint::OGather),
        "H" => Column::Host,
        _ => return None,
    })
}

fn parse_scale(s: &str) -> Option<Scale> {
    Some(match s.to_ascii_lowercase().as_str() {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "full" => Scale::Full,
        _ => return None,
    })
}

fn parse_audit(s: &str) -> Option<AuditLevel> {
    Some(match s.to_ascii_lowercase().as_str() {
        "off" => AuditLevel::Off,
        "final" => AuditLevel::Final,
        "full" => AuditLevel::Full,
        _ => return None,
    })
}

fn known_app(name: &str) -> bool {
    APP_NAMES
        .iter()
        .chain(EXTRA_APP_NAMES.iter())
        .any(|&a| a == name)
}

/// One-or-many string field: `"app": "ll"` or `"apps": ["ll","pr"]`.
fn string_list(j: &Json, one: &str, many: &str) -> Result<Option<Vec<String>>, String> {
    if let Some(v) = j.get(many) {
        let arr = v
            .as_arr()
            .ok_or_else(|| format!("{many:?} must be an array"))?;
        let items = arr
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()
            .ok_or_else(|| format!("{many:?} must be an array of strings"))?;
        if items.is_empty() {
            return Err(format!("{many:?} must not be empty"));
        }
        return Ok(Some(items));
    }
    if let Some(v) = j.get(one) {
        let s = v
            .as_str()
            .ok_or_else(|| format!("{one:?} must be a string"))?;
        return Ok(Some(vec![s.to_string()]));
    }
    Ok(None)
}

impl RunRequest {
    /// Parses the JSON body of `POST /run`. Errors are returned as
    /// plain-text messages suitable for a 400 body.
    pub fn parse(body: &str) -> Result<RunRequest, String> {
        let j = Json::parse(body).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let apps = string_list(&j, "app", "apps")?
            .ok_or_else(|| "missing \"app\" (or \"apps\")".to_string())?;
        for a in &apps {
            if !known_app(a) {
                return Err(format!("unknown app {a:?}"));
            }
        }
        let columns = match string_list(&j, "design", "designs")? {
            Some(labels) => labels
                .iter()
                .map(|l| parse_column(l).ok_or_else(|| format!("unknown design {l:?}")))
                .collect::<Result<Vec<Column>, String>>()?,
            None => vec![Column::Ndp(DesignPoint::O)],
        };
        let scale = match j.get("scale") {
            Some(v) => {
                let s = v.as_str().ok_or("\"scale\" must be a string")?;
                parse_scale(s).ok_or_else(|| format!("unknown scale {s:?}"))?
            }
            None => Scale::Tiny,
        };
        let audit = match j.get("audit") {
            Some(v) => {
                let s = v.as_str().ok_or("\"audit\" must be a string")?;
                Some(parse_audit(s).ok_or_else(|| format!("unknown audit level {s:?}"))?)
            }
            None => None,
        };
        Ok(RunRequest {
            apps,
            columns,
            scale,
            audit,
        })
    }

    /// Expands the request into sweep points, apps-major like the CLI's
    /// `run_matrix`. Every point uses the paper's Table-1 configuration
    /// — the same one the CLI figures run — so service results are
    /// byte-identical to `repro` output for the same cell.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.apps
            .iter()
            .flat_map(|app| {
                self.columns.iter().map(move |&col| {
                    let mut cfg = SystemConfig::table1();
                    if let Some(level) = self.audit {
                        cfg.audit = level;
                    }
                    SweepPoint::new(app.clone(), col, cfg, self.scale)
                })
            })
            .collect()
    }
}

/// One point of a job: the rendered result of a cache hit, or the
/// ticket of the simulation that produces it, shared with every job
/// that asked for the same point while it was in flight. A simulated
/// point is rendered only when its job is polled.
#[derive(Debug, Clone)]
pub(crate) enum JobPoint {
    /// A cache hit, rendered at admission.
    Ready(String),
    /// A point on the pool.
    Pending(PointTicket),
}

impl JobPoint {
    /// `None` while the point simulates, then `Ok` or the panic message.
    fn outcome(&self) -> Option<Result<(), &str>> {
        match self {
            JobPoint::Ready(_) => Some(Ok(())),
            JobPoint::Pending(t) => Some(t.outcome()?.map(|_| ())),
        }
    }

    fn result_json(&self) -> Option<String> {
        match self {
            JobPoint::Ready(json) => Some(json.clone()),
            JobPoint::Pending(t) => Some(t.outcome()?.ok()?.to_json()),
        }
    }
}

/// One accepted job: its points in request order.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Points in request order.
    pub points: Vec<JobPoint>,
}

impl Job {
    /// `queued` / `running` / `done` / `failed` for `GET /job/{id}`:
    /// `queued` before any point finished, `running` once some have,
    /// and once all have, `failed` if any simulation panicked, else
    /// `done`.
    pub fn status(&self) -> &'static str {
        let outcomes: Vec<_> = self.points.iter().filter_map(JobPoint::outcome).collect();
        if outcomes.len() < self.points.len() {
            if outcomes.is_empty() {
                "queued"
            } else {
                "running"
            }
        } else if outcomes.iter().any(Result::is_err) {
            "failed"
        } else {
            "done"
        }
    }

    /// Renders the job document. A `done` job carries `results`, an
    /// array of `RunResult` JSON documents in point order, rendered
    /// now; a `failed` one carries the first panic message as `error`.
    pub fn to_json(&self, id: u64) -> String {
        let status = self.status();
        let head = format!(
            "{{\"id\":{id},\"status\":\"{status}\",\"points\":{}",
            self.points.len()
        );
        match status {
            "done" => {
                let results: Vec<String> = self
                    .points
                    .iter()
                    .filter_map(JobPoint::result_json)
                    .collect();
                format!("{head},\"results\":[{}]}}", results.join(","))
            }
            "failed" => {
                let error = self.points.iter().find_map(|p| p.outcome()?.err());
                format!("{head},\"error\":{}}}", json_string(error.unwrap_or("")))
            }
            _ => format!("{head}}}"),
        }
    }
}

/// `s` as a JSON string literal, quotes included.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_minimal_and_full_bodies() {
        let r = RunRequest::parse("{\"app\":\"ll\"}").unwrap();
        assert_eq!(r.apps, vec!["ll"]);
        assert_eq!(r.columns, vec![Column::Ndp(DesignPoint::O)]);
        assert!(matches!(r.scale, Scale::Tiny));
        assert!(r.audit.is_none());

        let r = RunRequest::parse(
            "{\"apps\":[\"ll\",\"pr\"],\"designs\":[\"C\",\"h\",\"W+Hot\"],\"scale\":\"small\",\"audit\":\"full\"}",
        )
        .unwrap();
        assert_eq!(r.apps.len(), 2);
        assert_eq!(
            r.columns,
            vec![
                Column::Ndp(DesignPoint::C),
                Column::Host,
                Column::Ndp(DesignPoint::WHot)
            ]
        );
        assert!(matches!(r.scale, Scale::Small));
        assert_eq!(r.audit, Some(AuditLevel::Full));
        assert_eq!(r.points().len(), 6, "apps x designs cross product");
    }

    #[test]
    fn parse_accepts_gather_aware_designs() {
        let r = RunRequest::parse(
            "{\"app\":\"tree\",\"designs\":[\"W+Byte\",\"w+lent\",\"W+GA\",\"o+ga\"]}",
        )
        .unwrap();
        assert_eq!(
            r.columns,
            vec![
                Column::Ndp(DesignPoint::WByte),
                Column::Ndp(DesignPoint::WLent),
                Column::Ndp(DesignPoint::WGather),
                Column::Ndp(DesignPoint::OGather),
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_bodies() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"app\":\"nope\"}",
            "{\"app\":\"ll\",\"design\":\"Z\"}",
            "{\"app\":\"ll\",\"scale\":\"huge\"}",
            "{\"app\":\"ll\",\"audit\":\"maybe\"}",
            "{\"apps\":[]}",
            "{\"apps\":[3]}",
        ] {
            assert!(RunRequest::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn audit_override_lands_in_the_point_config() {
        let r = RunRequest::parse("{\"app\":\"ll\",\"audit\":\"off\"}").unwrap();
        assert_eq!(r.points()[0].cfg.audit, AuditLevel::Off);
        let r = RunRequest::parse("{\"app\":\"ll\",\"audit\":\"final\"}").unwrap();
        assert_eq!(r.points()[0].cfg.audit, AuditLevel::Final);
    }

    #[test]
    fn unknown_fields_are_ignored_and_keep_the_point_key() {
        // A field the service does not know (here one older clients
        // still send) neither fails the request nor moves the point
        // key, so such a request dedups against and hits the cache of
        // the plain one.
        let plain = RunRequest::parse("{\"app\":\"ll\"}").unwrap();
        let extra = RunRequest::parse("{\"app\":\"ll\",\"shards\":0}").unwrap();
        assert_eq!(plain.points()[0].key(), extra.points()[0].key());
    }

    #[test]
    fn job_status_progresses_with_cell_fills() {
        let sw = ndpb_bench::Sweeper::new(1);
        let cfg = SystemConfig::table1();
        let bad = sw.submit(SweepPoint::new("nope", Column::Host, cfg, Scale::Tiny));
        let hit = || JobPoint::Ready("{\"x\":1}".to_string());
        let pending = |t: &PointTicket| JobPoint::Pending(t.clone());
        let unscheduled = PointTicket::default();
        let job = |points| Job { points };
        assert_eq!(job(vec![pending(&unscheduled)]).status(), "queued");
        assert_eq!(job(vec![hit(), pending(&unscheduled)]).status(), "running");
        assert_eq!(
            job(vec![hit(), hit()]).to_json(7),
            "{\"id\":7,\"status\":\"done\",\"points\":2,\"results\":[{\"x\":1},{\"x\":1}]}"
        );
        while bad.outcome().is_none() {
            std::thread::yield_now();
        }
        let doc = job(vec![hit(), pending(&bad)]).to_json(9);
        let doc = Json::parse(&doc).expect("failed job is valid JSON");
        assert_eq!(doc.str_field("status"), Some("failed"));
        assert!(doc.get("results").is_none());
        assert!(doc
            .str_field("error")
            .unwrap()
            .contains("unknown application"));
    }

    #[test]
    fn waiters_block_until_fill() {
        // A blocked waiter and a job share one ticket: one simulation,
        // and the job renders the same result when polled.
        let sw = ndpb_bench::Sweeper::new(1);
        let cfg = SystemConfig::table1();
        let ticket = sw.submit(SweepPoint::new("ll", Column::Host, cfg, Scale::Tiny));
        let waiter = std::thread::spawn({
            let ticket = ticket.clone();
            move || ticket.wait()
        });
        let result = waiter.join().unwrap().to_json();
        let job = Job {
            points: vec![JobPoint::Pending(ticket)],
        };
        assert!(job.to_json(1).ends_with(&format!("[{result}]}}")));
        let simulated = sw.metrics().live_report().final_value("sweep/simulated");
        assert_eq!(simulated, Some(1));
    }

    #[test]
    fn json_string_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
