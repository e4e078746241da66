"""Reserved names shared across the pipeline.

These tie the telemetry fact shapes to the rule packs and the planning layer,
so they live in one place; the threat catalog lives in the domain instead.
"""

# Fact-side placeholder for a field the telemetry source did not report.
# Distinct from the rule-side anonymous variable "_", which matches anything.
WILDCARD = "wildcard"

# Single-app analysis: the subject application constant.
APP = "app"

# Event predicate: invoked(ts, syscall, pid, tid, object, mode, ret).
INVOKED = "invoked"
# Index of the timestamp argument, used by the strict event-ordering mode.
INVOKED_TS_ARG = 0

DECLARED_PERMISSION = "declared_permission"
DECLARED_INTENT = "declared_intent"

# Problem-template defaults: sensors the domain reasons about, plus the
# single account/factor pair used by the credential-theft path.
SENSORS = ("camera", "gps", "microphone", "screen")
ACCOUNT = "acct"
FACTOR = "sms_otp"
