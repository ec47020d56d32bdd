//! Active security through the full OWTE engine (§1, §4.3.3): denial
//! storms trip threshold rules which alert administrators, disable rule
//! classes (lockdown) or disable roles — all without human intervention.

use active_authz::{Dur, Engine, EngineError, Ts};
use sentinel::RuleClass;

const POLICY: &str = r#"
    policy "bank" {
      roles Teller, Auditor, Vault;
      users mallory, alice;
      assign alice -> Teller;
      permission open_vault = open on vault_door;
      grant open_vault -> Vault;
      active_security "probe" threshold 5 within 60s actions alert;
      active_security "storm" threshold 12 within 60s
          actions alert, disable_activity;
    }
"#;

fn engine() -> Engine {
    Engine::from_source(POLICY, Ts::ZERO).unwrap()
}

#[test]
fn threshold_rule_alerts_once_and_self_disables() {
    let mut e = engine();
    let mallory = e.user_id("mallory").unwrap();
    let vault = e.role_id("Vault").unwrap();
    let s = e.create_session(mallory, &[]).unwrap();

    // Four failed activations: below threshold, no alert.
    for _ in 0..4 {
        let _ = e.add_active_role(mallory, s, vault);
    }
    assert!(e.alerts().is_empty());
    // The fifth trips "probe".
    let _ = e.add_active_role(mallory, s, vault);
    let alerts = e.alerts();
    assert_eq!(alerts.len(), 1);
    assert!(alerts[0].contains("probe"));
    // The SEC rule disabled itself: further denials do not re-alert.
    for _ in 0..3 {
        let _ = e.add_active_role(mallory, s, vault);
    }
    assert_eq!(e.alerts().len(), 1);
    assert!(!e.pool().get_by_name("SEC_probe").unwrap().enabled);
}

#[test]
fn storm_triggers_lockdown_of_activity_rules() {
    let mut e = engine();
    let mallory = e.user_id("mallory").unwrap();
    let alice = e.user_id("alice").unwrap();
    let vault = e.role_id("Vault").unwrap();
    let teller = e.role_id("Teller").unwrap();
    let s = e.create_session(mallory, &[]).unwrap();
    let sa = e.create_session(alice, &[]).unwrap();

    for _ in 0..12 {
        let _ = e.add_active_role(mallory, s, vault);
    }
    let alerts = e.alerts();
    assert!(alerts.iter().any(|a| a.contains("storm")));
    // Activity-control rules are now disabled: even alice's legitimate
    // activation finds no rule to handle it.
    let err = e.add_active_role(alice, sa, teller).unwrap_err();
    assert!(matches!(err, EngineError::Unhandled(_)));
    // Check-access also goes dark (no CA rule → no allow).
    let open = e.system().op_by_name("open").unwrap();
    let door = e.system().obj_by_name("vault_door").unwrap();
    assert!(!e.check_access(sa, open, door).unwrap());

    // Administrator recovery: re-enable the class.
    let n = e.enable_rule_class(RuleClass::ActivityControl);
    assert!(n > 0);
    e.add_active_role(alice, sa, teller).unwrap();
}

#[test]
fn window_expiry_resets_threshold() {
    let mut e = engine();
    let mallory = e.user_id("mallory").unwrap();
    let vault = e.role_id("Vault").unwrap();
    let s = e.create_session(mallory, &[]).unwrap();
    // Three denials, then the window slides past them.
    for _ in 0..3 {
        let _ = e.add_active_role(mallory, s, vault);
    }
    e.advance(Dur::from_secs(120)).unwrap();
    for _ in 0..3 {
        let _ = e.add_active_role(mallory, s, vault);
    }
    assert!(
        e.alerts().is_empty(),
        "3 + 3 denials in separate windows stay below threshold 5"
    );
    // Two more within the second window trip it.
    for _ in 0..2 {
        let _ = e.add_active_role(mallory, s, vault);
    }
    assert_eq!(e.alerts().len(), 1);
}

#[test]
fn denials_from_check_access_count_too() {
    let mut e = engine();
    let mallory = e.user_id("mallory").unwrap();
    let s = e.create_session(mallory, &[]).unwrap();
    let open = e.system().op_by_name("open").unwrap();
    let door = e.system().obj_by_name("vault_door").unwrap();
    for _ in 0..5 {
        assert!(!e.check_access(s, open, door).unwrap());
    }
    assert_eq!(e.alerts().len(), 1, "probe tripped by access denials");
    // The audit log records the full history for the administrator report.
    assert!(e.log().denial_count() >= 5);
    let report = e.log().report();
    assert!(report.contains("ALERT"));
    assert!(report.contains("Permission Denied"));
}

#[test]
fn disable_role_reaction() {
    let src = r#"
        policy "p" {
          roles Target, Other;
          users mallory;
          active_security "cutoff" threshold 3 within 60s
              actions alert, disable_role Target;
        }
    "#;
    let mut e = Engine::from_source(src, Ts::ZERO).unwrap();
    let mallory = e.user_id("mallory").unwrap();
    let target = e.role_id("Target").unwrap();
    let s = e.create_session(mallory, &[]).unwrap();
    assert!(e.system().is_enabled(target).unwrap());
    for _ in 0..3 {
        let _ = e.add_active_role(mallory, s, target);
    }
    assert!(
        !e.system().is_enabled(target).unwrap(),
        "the SEC rule raised the disableRole event; the DISR rule applied it"
    );
    assert_eq!(e.alerts().len(), 1);
}

#[test]
fn transaction_based_activation_via_aperiodic() {
    // Rule 9's original form, wired manually on the engine's substrates:
    // JuniorEmp activations are only *observed* between Manager activation
    // and deactivation using an Aperiodic event. This exercises the event
    // algebra the generated rules build on.
    use sentinel::{attach_rule, ActionSpec, CondExpr, Rule};
    use snoop::{Detector, EventExpr, Params};

    let mut detector = Detector::new(Ts::ZERO);
    let mut pool = sentinel::RulePool::new();
    let mut state = sentinel::PermissiveState::default();
    let mut log = sentinel::AuditLog::new();

    let et16 = EventExpr::prim("managerActivated");
    let et13 = EventExpr::prim("juniorRequest");
    let et17 = EventExpr::prim("managerDeactivated");
    let asec3_event = detector
        .define(&EventExpr::aperiodic(et16, et13, et17))
        .unwrap();
    attach_rule(
        &mut detector,
        &mut pool,
        Rule::new("ASEC3", asec3_event, CondExpr::True).then(vec![ActionSpec::Custom {
            name: "activateJuniorEmp".into(),
            args: vec![],
        }]),
    );

    let exec = sentinel::Executor::new();
    let mut rt = sentinel::Runtime {
        detector: &mut detector,
        pool: &mut pool,
        state: &mut state,
        log: &mut log,
        plan: None,
    };
    // Request before the manager window: no rule fires.
    exec.dispatch_named(&mut rt, "juniorRequest", Params::new())
        .unwrap();
    assert!(state.log.is_empty());

    let mut rt = sentinel::Runtime {
        detector: &mut detector,
        pool: &mut pool,
        state: &mut state,
        log: &mut log,
        plan: None,
    };
    // SnoopIB sequencing is strict: separate the occurrences in time.
    exec.dispatch_named(&mut rt, "managerActivated", Params::new())
        .unwrap();
    exec.advance(&mut rt, Dur::from_secs(1)).unwrap();
    let rep = exec
        .dispatch_named(&mut rt, "juniorRequest", Params::new())
        .unwrap();
    assert_eq!(rep.fired, 1);
    exec.advance(&mut rt, Dur::from_secs(1)).unwrap();
    exec.dispatch_named(&mut rt, "managerDeactivated", Params::new())
        .unwrap();
    exec.advance(&mut rt, Dur::from_secs(1)).unwrap();
    let rep = exec
        .dispatch_named(&mut rt, "juniorRequest", Params::new())
        .unwrap();
    assert_eq!(rep.fired, 0, "terminated: the Aperiodic window closed");
    assert_eq!(state.log.len(), 1);
}
