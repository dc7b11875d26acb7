//! Simulated ticks pinned by `results/reproduce.log` for the default input
//! seed: every sweep cell at that seed must reproduce its row exactly.

use std::collections::HashMap;

/// The reproduce log, relative to the checkout root.
pub const LOG: &str = "results/reproduce.log";

/// `(kernel, config label) -> simulated ticks`.
#[derive(Debug)]
pub struct Pinned(HashMap<(String, String), u64>);

impl Pinned {
    /// Parses the log's `kernel config ticks` rows. Repeated rows (the
    /// log lists a cell once per figure that ran it) must agree.
    ///
    /// # Errors
    ///
    /// Returns a message when the log is unreadable, has no rows, or two
    /// rows of one cell disagree.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(LOG).map_err(|e| format!("{LOG}: {e}"))?;
        let mut rows = HashMap::new();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [kernel, config, ticks] = f[..] else {
                continue;
            };
            let Ok(ticks) = ticks.parse::<u64>() else {
                continue;
            };
            let key = (kernel.to_string(), config.to_string());
            if let Some(prev) = rows.insert(key, ticks) {
                if prev != ticks {
                    return Err(format!(
                        "{LOG}: {kernel} {config} pinned twice ({prev} vs {ticks})"
                    ));
                }
            }
        }
        if rows.is_empty() {
            return Err(format!("{LOG}: no rows"));
        }
        Ok(Self(rows))
    }

    /// Checks one cell's ticks against its row.
    ///
    /// # Errors
    ///
    /// Returns a message when the cell has no row or its ticks differ.
    pub fn check(&self, kernel: &str, config: &str, ticks: u64) -> Result<(), String> {
        match self.0.get(&(kernel.to_string(), config.to_string())) {
            None => Err(format!("{kernel}/{config}: no row in {LOG}")),
            Some(&p) if p != ticks => Err(format!(
                "{kernel}/{config}: {ticks} simulated ticks, {LOG} pins {p}"
            )),
            Some(_) => Ok(()),
        }
    }
}
