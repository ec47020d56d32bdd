//! The `rbacsh` administrative shell: a line-oriented interpreter over the
//! OWTE engine.
//!
//! The paper's administrators interact with a GUI; a Rust library's
//! administrators get a REPL. Every command goes through the same rule
//! pool as programmatic callers, so the shell doubles as a manual test
//! bench. The interpreter is a plain function of a line to an output
//! string, so it is fully unit-testable; `src/bin/rbacsh.rs` wraps it in a
//! stdin loop.

use owte_core::{Engine, EngineError};
use policy::PolicyGraph;
use rbac::SessionId;
use snoop::{Civil, Dur, Ts};

/// Shell state: an optional engine (until a policy is loaded) and command
/// history length bookkeeping.
pub struct Shell {
    engine: Option<Engine>,
}

impl Default for Shell {
    fn default() -> Shell {
        Shell::new()
    }
}

/// Parse `2h`, `30m`, `45s`, or plain seconds.
fn parse_dur(s: &str) -> Result<Dur, String> {
    let (num, unit) = match s.as_bytes().last() {
        Some(b'h') => (&s[..s.len() - 1], 3600),
        Some(b'm') => (&s[..s.len() - 1], 60),
        Some(b's') => (&s[..s.len() - 1], 1),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|n| Dur::from_secs(n * unit))
        .map_err(|_| format!("bad duration `{s}` (try 2h, 30m, 45s)"))
}

const HELP: &str = "\
commands:
  load-policy <<EOF … EOF    load a policy inline (heredoc)
  load-file <path>           load a policy from a .acp file
  save-policy <path>         write the current policy as DSL text
  policy                     print the current policy in DSL form
  rules [prefix]             list generated rules (| marks disabled)
  rule <name>                show one rule in OWTE syntax
  stats                      rule pool and generation statistics
  users | roles | sessions   list entities / open sessions
  session <user> [role…]     open a session (optionally with initial roles)
  close <user> <session#>    close a session
  activate <user> <session#> <role>
  drop <user> <session#> <role>
  access <session#> <op> <obj> [purpose]
  assign <user> <role> | deassign <user> <role>
  enable <role> | disable <role>
  context <key> <value>      external context event
  advance <dur>              advance the clock (e.g. 2h, 30m, 90s)
  clock                      show the logical time
  log [n]                    last n audit entries (default 10)
  alerts                     active-security alerts
  analyze [--strict]         static rule-pool analysis: termination proof,
                             dead/shadowed rules, coverage, SoD conflicts
                             and opaque footprints; --strict fails (for
                             scripted pipelines) on any diagnostic
  analyze --plan             dump the compiled execution plan (per-event
                             dispatch tables, condition bytecode, baked
                             actions); errors if the pool is unlicensed
  dot policy | dot events | dot rules
                             Graphviz DOT of the policy graph, the event
                             graph, or the rule-dependency graph
  help                       this text";

impl Shell {
    /// A shell with no policy loaded.
    pub fn new() -> Shell {
        Shell { engine: None }
    }

    /// A shell over an existing engine.
    pub fn with_engine(engine: Engine) -> Shell {
        Shell {
            engine: Some(engine),
        }
    }

    /// Load a policy from DSL text (starting the clock at the current
    /// engine time, or the timeline origin).
    pub fn load(&mut self, src: &str) -> Result<String, String> {
        let start = self.engine.as_ref().map_or(Ts::ZERO, Engine::now);
        let graph: PolicyGraph = policy::parse(src).map_err(|e| e.to_string())?;
        let engine = Engine::from_policy(&graph, start).map_err(|e| e.to_string())?;
        let stats = engine.stats();
        let out = format!(
            "loaded policy \"{}\": {} roles, {} users, {} rules, {} event nodes",
            graph.name,
            graph.roles.len(),
            graph.users.len(),
            stats.total_rules(),
            stats.event_nodes
        );
        self.engine = Some(engine);
        Ok(out)
    }

    fn engine(&mut self) -> Result<&mut Engine, String> {
        self.engine
            .as_mut()
            .ok_or_else(|| "no policy loaded (use load-policy)".to_string())
    }

    fn fmt_err(e: EngineError) -> String {
        e.to_string()
    }

    /// Execute one command line; returns the text to show.
    pub fn exec(&mut self, line: &str) -> Result<String, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(&cmd) = words.first() else {
            return Ok(String::new());
        };
        match (cmd, &words[1..]) {
            ("help", _) => Ok(HELP.to_string()),
            ("load-file", [path]) => {
                let src = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                self.load(&src)
            }
            ("save-policy", [path]) => {
                let text = {
                    let e = self.engine()?;
                    policy::print(e.policy())
                };
                std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
                Ok(format!("policy written to {path} ({} bytes)", text.len()))
            }
            ("policy", []) => {
                let e = self.engine()?;
                Ok(policy::print(e.policy()))
            }
            ("rules", rest) => {
                let e = self.engine()?;
                let prefix = rest.first().copied().unwrap_or("");
                let mut names: Vec<String> = e
                    .pool()
                    .iter()
                    .filter(|(_, r)| r.name.starts_with(prefix))
                    .map(|(_, r)| {
                        format!(
                            "{}{}  [{} {}]",
                            if r.enabled { " " } else { "|" },
                            r.name,
                            r.class,
                            r.granularity
                        )
                    })
                    .collect();
                names.sort();
                Ok(format!("{} rules\n{}", names.len(), names.join("\n")))
            }
            ("rule", [name]) => {
                let e = self.engine()?;
                let text = e.rule_text(name);
                text.ok_or_else(|| format!("no rule named `{name}`"))
            }
            ("stats", []) => {
                let e = self.engine()?;
                let p = e.pool().stats();
                let g = e.stats();
                Ok(format!(
                    "rules: {} total ({} enabled), {} checks\n\
                     classes: {} administrative, {} activity-control, {} active-security\n\
                     granularity: {} specialized, {} localized, {} globalized\n\
                     events: {} nodes; sessions: {}; denials logged: {}",
                    p.total,
                    p.enabled,
                    p.checks,
                    p.administrative,
                    p.activity_control,
                    p.active_security,
                    p.specialized,
                    p.localized,
                    p.globalized,
                    g.event_nodes,
                    e.system().session_count(),
                    e.log().denial_count(),
                ))
            }
            ("users", []) => {
                let e = self.engine()?;
                let names: Vec<String> = e
                    .system()
                    .all_users()
                    .filter_map(|u| e.system().user_name(u).ok().map(str::to_string))
                    .collect();
                Ok(names.join(", "))
            }
            ("roles", []) => {
                let e = self.engine()?;
                let mut out = Vec::new();
                for r in e.system().all_roles() {
                    let name = e.system().role_name(r).map_err(|x| x.to_string())?;
                    let enabled = e.system().is_enabled(r).map_err(|x| x.to_string())?;
                    let active = e
                        .system()
                        .active_users_of_role(r)
                        .map_err(|x| x.to_string())?;
                    out.push(format!(
                        "{name}{} ({active} active)",
                        if enabled { "" } else { " [disabled]" }
                    ));
                }
                Ok(out.join("\n"))
            }
            ("sessions", []) => {
                let e = self.engine()?;
                let mut out = Vec::new();
                for s in e.system().all_sessions() {
                    let user = e.system().session_user(s).map_err(|x| x.to_string())?;
                    let uname = e.system().user_name(user).map_err(|x| x.to_string())?;
                    let roles: Vec<String> = e
                        .system()
                        .session_roles(s)
                        .map_err(|x| x.to_string())?
                        .iter()
                        .filter_map(|&r| e.system().role_name(r).ok().map(str::to_string))
                        .collect();
                    out.push(format!("#{} {uname}: [{}]", s.0, roles.join(", ")));
                }
                if out.is_empty() {
                    Ok("no open sessions".to_string())
                } else {
                    Ok(out.join("\n"))
                }
            }
            ("session", [user, roles @ ..]) => {
                let e = self.engine()?;
                let u = e.user_id(user).map_err(Self::fmt_err)?;
                let rids = roles
                    .iter()
                    .map(|r| e.role_id(r))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(Self::fmt_err)?;
                let s = e.create_session(u, &rids).map_err(Self::fmt_err)?;
                Ok(format!("session #{} opened for {user}", s.0))
            }
            ("close", [user, sid]) => {
                let e = self.engine()?;
                let u = e.user_id(user).map_err(Self::fmt_err)?;
                let s = parse_session(sid)?;
                e.delete_session(u, s).map_err(Self::fmt_err)?;
                Ok(format!("session #{} closed", s.0))
            }
            ("activate", [user, sid, role]) => {
                let e = self.engine()?;
                let u = e.user_id(user).map_err(Self::fmt_err)?;
                let r = e.role_id(role).map_err(Self::fmt_err)?;
                let s = parse_session(sid)?;
                e.add_active_role(u, s, r).map_err(Self::fmt_err)?;
                Ok(format!("{role} activated in session #{}", s.0))
            }
            ("drop", [user, sid, role]) => {
                let e = self.engine()?;
                let u = e.user_id(user).map_err(Self::fmt_err)?;
                let r = e.role_id(role).map_err(Self::fmt_err)?;
                let s = parse_session(sid)?;
                e.drop_active_role(u, s, r).map_err(Self::fmt_err)?;
                Ok(format!("{role} dropped from session #{}", s.0))
            }
            ("access", [sid, op, obj, rest @ ..]) => {
                let e = self.engine()?;
                let s = parse_session(sid)?;
                let opid = e.system().op_by_name(op).map_err(|x| x.to_string())?;
                let objid = e.system().obj_by_name(obj).map_err(|x| x.to_string())?;
                let allowed = match rest {
                    [purpose] => e
                        .check_access_for_purpose(s, opid, objid, purpose)
                        .map_err(Self::fmt_err)?,
                    _ => e.check_access(s, opid, objid).map_err(Self::fmt_err)?,
                };
                Ok(format!(
                    "{} {op} on {obj} for session #{}",
                    if allowed { "ALLOW" } else { "DENY" },
                    s.0
                ))
            }
            ("assign", [user, role]) => {
                let e = self.engine()?;
                let u = e.user_id(user).map_err(Self::fmt_err)?;
                let r = e.role_id(role).map_err(Self::fmt_err)?;
                e.assign_user(u, r).map_err(Self::fmt_err)?;
                Ok(format!("{user} assigned to {role}"))
            }
            ("deassign", [user, role]) => {
                let e = self.engine()?;
                let u = e.user_id(user).map_err(Self::fmt_err)?;
                let r = e.role_id(role).map_err(Self::fmt_err)?;
                e.deassign_user(u, r).map_err(Self::fmt_err)?;
                Ok(format!("{user} deassigned from {role}"))
            }
            ("enable", [role]) => {
                let e = self.engine()?;
                let r = e.role_id(role).map_err(Self::fmt_err)?;
                e.enable_role(r).map_err(Self::fmt_err)?;
                Ok(format!("{role} enabled"))
            }
            ("disable", [role]) => {
                let e = self.engine()?;
                let r = e.role_id(role).map_err(Self::fmt_err)?;
                e.disable_role(r).map_err(Self::fmt_err)?;
                Ok(format!("{role} disabled"))
            }
            ("context", [key, value]) => {
                let e = self.engine()?;
                e.set_context(key, value).map_err(Self::fmt_err)?;
                Ok(format!("context {key} = {value}"))
            }
            ("advance", [dur]) => {
                let d = parse_dur(dur)?;
                let e = self.engine()?;
                let report = e.advance(d).map_err(Self::fmt_err)?;
                Ok(format!(
                    "advanced to {} ({} temporal rule firings)",
                    Civil::from_ts(e.now()),
                    report.fired + report.else_taken
                ))
            }
            ("clock", []) => {
                let e = self.engine()?;
                Ok(format!("{}", Civil::from_ts(e.now())))
            }
            ("log", rest) => {
                let n: usize = rest
                    .first()
                    .map_or(Ok(10), |s| s.parse().map_err(|_| "bad count".to_string()))?;
                let e = self.engine()?;
                let entries = e.log().entries();
                let start = entries.len().saturating_sub(n);
                Ok(entries
                    .iter()
                    .skip(start)
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            ("dot", ["policy"]) => {
                let e = self.engine()?;
                Ok(e.policy().to_dot())
            }
            ("dot", ["events"]) => {
                let e = self.engine()?;
                Ok(e.event_graph_dot())
            }
            ("dot", ["rules"]) => {
                let e = self.engine()?;
                Ok(e.rule_graph_dot())
            }
            ("analyze", ["--plan"]) => {
                let e = self.engine()?;
                e.plan_text().ok_or_else(|| {
                    "no compiled plan: the pool is not licensed for compilation \
                     (not proved terminating, error diagnostics present, or \
                     compilation disabled)"
                        .to_string()
                })
            }
            ("analyze", rest) => {
                let strict = match rest {
                    [] => false,
                    ["--strict"] => true,
                    _ => return Err("usage: analyze [--strict|--plan]".to_string()),
                };
                let e = self.engine()?;
                let report = e.analyze();
                let mut out = report.to_string().trim_end().to_string();
                if e.proved_acyclic() {
                    out.push_str("\nexecutor: cascade-depth bookkeeping skipped (proved acyclic)");
                }
                if strict && !report.diagnostics.is_empty() {
                    // Strict mode makes every finding fatal so scripted
                    // pipelines (CI `compiled-path`) fail on warnings too.
                    return Err(format!(
                        "{out}\nstrict: {} diagnostic(s) present",
                        report.diagnostics.len()
                    ));
                }
                Ok(out)
            }
            ("alerts", []) => {
                let e = self.engine()?;
                let alerts = e.alerts();
                if alerts.is_empty() {
                    Ok("no alerts".to_string())
                } else {
                    Ok(alerts.join("\n"))
                }
            }
            _ => Err(format!("unknown command `{line}` (try `help`)")),
        }
    }
}

fn parse_session(s: &str) -> Result<SessionId, String> {
    s.trim_start_matches('#')
        .parse::<u32>()
        .map(SessionId)
        .map_err(|_| format!("bad session id `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: &str = r#"
        policy "t" {
          roles Teller, Vault;
          users alice;
          assign alice -> Teller;
          permission serve = serve on counter;
          grant serve -> Teller;
        }
    "#;

    fn shell() -> Shell {
        let mut sh = Shell::new();
        sh.load(POLICY).unwrap();
        sh
    }

    #[test]
    fn requires_loaded_policy() {
        let mut sh = Shell::new();
        assert!(sh.exec("roles").unwrap_err().contains("no policy loaded"));
        assert!(sh.exec("help").is_ok(), "help works without a policy");
    }

    #[test]
    fn load_reports_stats() {
        let mut sh = Shell::new();
        let out = sh.load(POLICY).unwrap();
        assert!(out.contains("2 roles"));
        assert!(out.contains("rules"));
        // Bad policy text is a readable error.
        assert!(sh.load("nonsense").is_err());
    }

    #[test]
    fn session_workflow() {
        let mut sh = shell();
        let out = sh.exec("session alice Teller").unwrap();
        assert!(out.contains("session #0"));
        assert_eq!(
            sh.exec("access 0 serve counter").unwrap(),
            "ALLOW serve on counter for session #0"
        );
        sh.exec("drop alice 0 Teller").unwrap();
        assert_eq!(
            sh.exec("access 0 serve counter").unwrap(),
            "DENY serve on counter for session #0"
        );
        let out = sh.exec("sessions").unwrap();
        assert!(out.contains("#0 alice"));
        sh.exec("close alice 0").unwrap();
        assert_eq!(sh.exec("sessions").unwrap(), "no open sessions");
    }

    #[test]
    fn denied_activation_is_an_error_with_rule_message() {
        let mut sh = shell();
        sh.exec("session alice").unwrap();
        let err = sh.exec("activate alice 0 Vault").unwrap_err();
        assert!(err.contains("Access Denied Cannot Activate Vault"), "{err}");
    }

    #[test]
    fn rules_and_stats_views() {
        let mut sh = shell();
        let out = sh.exec("rules AAR").unwrap();
        assert!(out.contains("AAR1_Teller"));
        let out = sh.exec("rule CA").unwrap();
        assert!(out.starts_with("RULE [ CA"));
        assert!(
            out.contains("ON    checkAccess"),
            "event shown by name: {out}"
        );
        assert!(sh.exec("rule nope").is_err());
        let out = sh.exec("stats").unwrap();
        assert!(out.contains("activity-control"));
        let out = sh.exec("policy").unwrap();
        assert!(out.contains("policy \"t\""));
    }

    #[test]
    fn clock_and_advance() {
        let mut sh = shell();
        assert_eq!(sh.exec("clock").unwrap(), "2000-01-01 00:00:00");
        sh.exec("advance 2h").unwrap();
        assert_eq!(sh.exec("clock").unwrap(), "2000-01-01 02:00:00");
        sh.exec("advance 90m").unwrap();
        assert_eq!(sh.exec("clock").unwrap(), "2000-01-01 03:30:00");
        assert!(sh.exec("advance nonsense").is_err());
    }

    #[test]
    fn admin_and_log() {
        let mut sh = shell();
        sh.exec("assign alice Vault").unwrap();
        sh.exec("session alice Vault").unwrap();
        sh.exec("deassign alice Vault").unwrap();
        sh.exec("disable Teller").unwrap();
        let out = sh.exec("roles").unwrap();
        assert!(out.contains("Teller [disabled]"));
        sh.exec("enable Teller").unwrap();
        let log = sh.exec("log 5").unwrap();
        assert!(log.contains("fired"));
        assert_eq!(sh.exec("alerts").unwrap(), "no alerts");
    }

    #[test]
    fn unknown_commands_and_names() {
        let mut sh = shell();
        assert!(sh.exec("frobnicate").is_err());
        assert!(sh
            .exec("session nobody")
            .unwrap_err()
            .contains("unknown name"));
        assert!(sh.exec("activate alice zero Teller").is_err());
        assert_eq!(sh.exec("").unwrap(), "");
    }

    #[test]
    fn save_and_load_file_round_trip() {
        let mut sh = shell();
        let path = std::env::temp_dir().join("rbacsh_roundtrip_test.acp");
        let path = path.to_str().unwrap().to_string();
        let out = sh.exec(&format!("save-policy {path}")).unwrap();
        assert!(out.contains("written"));
        let mut sh2 = Shell::new();
        let out = sh2.exec(&format!("load-file {path}")).unwrap();
        assert!(out.contains("loaded policy \"t\""));
        assert_eq!(sh.exec("policy").unwrap(), sh2.exec("policy").unwrap());
        let _ = std::fs::remove_file(&path);
        assert!(sh.exec("load-file /no/such/file.acp").is_err());
    }

    #[test]
    fn dot_outputs() {
        let mut sh = shell();
        assert!(sh.exec("dot policy").unwrap().starts_with("graph policy {"));
        assert!(sh
            .exec("dot events")
            .unwrap()
            .starts_with("digraph events {"));
        let rules = sh.exec("dot rules").unwrap();
        assert!(rules.starts_with("digraph rules {"), "{rules}");
        assert!(rules.contains("AAR1_Teller"));
    }

    #[test]
    fn analyze_reports_clean_verdict() {
        let mut sh = shell();
        let out = sh.exec("analyze").unwrap();
        assert!(out.contains("PROVED-TERMINATING"), "{out}");
        assert!(out.contains("0 errors"));
        assert!(out.contains("proved acyclic"), "{out}");
        // Listed in help.
        assert!(sh.exec("help").unwrap().contains("analyze"));
    }

    #[test]
    fn analyze_strict_gates_on_diagnostics() {
        // Strict agrees with the plain report: passes iff no findings…
        let mut sh = shell();
        let plain = sh.exec("analyze").unwrap();
        assert_eq!(
            sh.exec("analyze --strict").is_ok(),
            plain.contains("0 errors, 0 warnings"),
            "{plain}"
        );
        assert!(sh.exec("analyze --bogus").is_err());
        // …while a DSD set defeated by a common senior — a Warning, so
        // the DenyOnError load gate lets it through — fails strict.
        let mut warny = Shell::new();
        warny
            .load(
                r#"
                policy "w" {
                  roles Boss, A, B;
                  users bob;
                  hierarchy Boss -> A;
                  hierarchy Boss -> B;
                  dsd "ab" { A, B } cardinality 2;
                  assign bob -> Boss;
                  permission p = op on obj;
                  grant p -> A;
                }
                "#,
            )
            .unwrap();
        assert!(warny.exec("analyze").is_ok(), "plain analyze only reports");
        let err = warny.exec("analyze --strict").unwrap_err();
        assert!(err.contains("strict:"), "{err}");
        assert!(err.contains("sod-hierarchy-conflict"), "{err}");
    }

    #[test]
    fn analyze_plan_dumps_dispatch_and_bytecode() {
        let mut sh = shell();
        let out = sh.exec("analyze --plan").unwrap();
        assert!(out.starts_with("compiled plan:"), "{out}");
        assert!(out.contains("on checkAccess"), "{out}");
        assert!(out.contains("rule CA"), "{out}");
        assert!(sh.exec("help").unwrap().contains("--plan"));
        // Unknown flags still fail with the usage line.
        let usage = sh.exec("analyze --plan --strict").unwrap_err();
        assert!(usage.contains("usage:"), "{usage}");
    }

    #[test]
    fn duration_parser() {
        assert_eq!(parse_dur("2h").unwrap(), Dur::from_hours(2));
        assert_eq!(parse_dur("30m").unwrap(), Dur::from_mins(30));
        assert_eq!(parse_dur("45s").unwrap(), Dur::from_secs(45));
        assert_eq!(parse_dur("7").unwrap(), Dur::from_secs(7));
        assert!(parse_dur("h").is_err());
    }
}
