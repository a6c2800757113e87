"""Condition monitoring and activation control on a sensor network.

Conditions (Sections 5.1.2, 5.2.5, 5.2.6) as an alerting system: watch
which alerts a batch of sensor updates raises or clears, ask the framework
how an alert *could* be raised (enforcing activation), and extend a risky
batch so that no alert fires (preventing activation).

Run:  python examples/condition_monitoring_alerts.py
"""

from repro import DeductiveDatabase, Transaction, UpdateProcessor, insert


def build_network() -> DeductiveDatabase:
    return DeductiveDatabase.from_source("""
        % sensors and their rooms
        Sensor(S1, Lab). Sensor(S2, Lab). Sensor(S3, Office).
        % current readings
        Hot(S1). Offline(S3).

        % an alert fires for a room when some sensor there reads hot and the
        % room's ventilation is not running
        Alert(r) <- Sensor(s, r) & Hot(s) & not Vent(r).
        % a room is blind when every... (simplified) a sensor there is offline
        Blind(r) <- Sensor(s, r) & Offline(s).
    """)


def main() -> None:
    db = build_network()
    db.declare_base("Vent", 1)
    monitor = UpdateProcessor(db)
    monitor.declare_condition("Alert")
    monitor.declare_condition("Blind")

    # --- 5.1.2: monitor a batch of sensor updates -------------------------------
    batch = Transaction([insert("Hot", "S3"), insert("Vent", "Lab")])
    changes = monitor.monitor(batch)
    print(f"batch {batch}\n  monitor -> {changes}")

    # --- 5.2.5: how could the Office alert ever fire? ---------------------------
    recipe = monitor.enforce_condition("Alert", args=("Office",))
    print(f"\nways to raise Alert(Office): {recipe}")

    # --- validation: is the Blind condition activatable at all? -----------------
    validation = monitor.validate_condition("Blind")
    print(f"Blind condition achievable: {validation}")

    # --- 5.2.6: apply a hot reading without raising any alert -------------------
    risky = Transaction([insert("Hot", "S2")])
    safe = monitor.prevent_condition_activation(risky, "Alert")
    print(f"\nrisky batch {risky}")
    print(f"  alert-free extensions: {safe}")

    # Execute the safest extension and confirm silence.
    chosen = safe.translations[0].transaction
    quiet = monitor.monitor(chosen)
    print(f"  executed {chosen}: alerts changed = "
          f"{not quiet.is_unaffected('Alert')}")
    assert quiet.is_unaffected("Alert")


if __name__ == "__main__":
    main()
