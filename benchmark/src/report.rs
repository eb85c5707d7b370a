//! The result of one measuring process, as the line a driver reads and as
//! the lines a person reads.

use crate::names::unit_of;
use serde::Value;

/// What one measuring process found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `failed == 0`: every output the process checked was right.
    pub correct: bool,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that failed.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// The value of metric `name`, if the process reported it.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Failed rounds over attempted rounds — the issue's fifth end-to-end
    /// metric, carried by the two counts.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result as a value tree with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let fields = vec![
                    ("value".to_string(), Value::Num(*value)),
                    ("unit".to_string(), Value::Str(unit_of(name).to_string())),
                ];
                (name.clone(), Value::Object(fields))
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Uint(self.attempted)),
            ("failed".to_string(), Value::Uint(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    /// The one JSON object a driver reads from the last line of standard
    /// output.
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("a value tree always serializes")
    }

    /// Parses a line [`Self::to_line`] wrote.
    ///
    /// # Errors
    /// Text that is not such a line.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("result lacks `{key}`"))
        };
        let count = |key: &str| match field(key)? {
            Value::Uint(n) => Ok(*n),
            other => Err(format!("`{key}` is {other:?}, not a count")),
        };
        let Value::Bool(correct) = field("correct")? else {
            return Err("`correct` is not a boolean".to_string());
        };
        let Value::Object(metrics) = field("metrics")? else {
            return Err("`metrics` is not an object".to_string());
        };
        let metrics = metrics
            .iter()
            .map(|(name, metric)| match metric.get("value") {
                Some(Value::Num(v)) => Ok((name.clone(), *v)),
                Some(Value::Uint(v)) => Ok((name.clone(), *v as f64)),
                Some(Value::Int(v)) => Ok((name.clone(), *v as f64)),
                other => Err(format!("metric `{name}` has value {other:?}")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// One `name value unit` line per metric.
    #[must_use]
    pub fn to_table(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value)| format!("  {name:<32} {value:>16.6} {}\n", unit_of(name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips_with_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 1800,
            failed: 0,
            metrics: vec![
                ("setup_s".to_string(), 0.4127),
                ("round_wall_us".to_string(), 8405.0),
            ],
        };
        let line = outcome.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::from_line(&line).unwrap(), outcome);
        let Value::Object(fields) = serde_json::from_str::<Value>(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""setup_s":{"value":0.4127,"unit":"s"}"#));
        assert_eq!(outcome.failed_share(), 0.0);
    }

    #[test]
    fn from_line_rejects_other_text() {
        assert!(Outcome::from_line("warming up").is_err());
        assert!(Outcome::from_line(r#"{"correct": true}"#).is_err());
    }
}
