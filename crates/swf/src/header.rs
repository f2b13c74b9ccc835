//! SWF header metadata.
//!
//! SWF files start with comment lines of the form `; Key: value`. Only a
//! handful of keys matter for simulation — most importantly `MaxProcs`, the
//! machine size `m` used by the paper's platform model (§2.3: "a pool of m
//! identical resources"). Unknown keys are preserved verbatim so that
//! writing a parsed log loses no information.

/// Parsed SWF header.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfHeader {
    /// `MaxProcs`: machine size in processors (the paper's `m`).
    pub max_procs: Option<u64>,
    /// `MaxNodes`: machine size in nodes, when distinct from processors.
    pub max_nodes: Option<u64>,
    /// `UnixStartTime`: epoch timestamp of the first record's time origin.
    pub unix_start_time: Option<i64>,
    /// `TimeZoneString`: IANA-style timezone name, when recorded.
    pub time_zone: Option<String>,
    /// `MaxJobs`: number of jobs the header claims the log holds.
    pub max_jobs: Option<u64>,
    /// `MaxRuntime`: maximum run time (seconds) in the log.
    pub max_runtime: Option<i64>,
    /// `Computer`: free-text machine description.
    pub computer: Option<String>,
    /// `Installation`: free-text site description.
    pub installation: Option<String>,
    /// Every header line verbatim (without the leading `;`), in order, so
    /// the writer can reproduce the file byte-for-byte modulo whitespace.
    pub raw_lines: Vec<String>,
}

impl SwfHeader {
    /// Ingests one header comment line (with or without the leading `;`).
    pub fn ingest_line(&mut self, line: &str) {
        let body = line.trim_start_matches(';').trim();
        self.raw_lines.push(body.to_string());
        let Some((key, value)) = body.split_once(':') else {
            return;
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "MaxProcs" => self.max_procs = value.parse().ok(),
            "MaxNodes" => self.max_nodes = value.parse().ok(),
            "UnixStartTime" => self.unix_start_time = value.parse().ok(),
            "TimeZoneString" => self.time_zone = Some(value.to_string()),
            "MaxJobs" => self.max_jobs = value.parse().ok(),
            "MaxRuntime" => self.max_runtime = value.parse().ok(),
            "Computer" => self.computer = Some(value.to_string()),
            "Installation" => self.installation = Some(value.to_string()),
            _ => {}
        }
    }

    /// Builds a minimal header for a synthetic log of machine size
    /// `max_procs`, labeled with `computer`.
    pub fn synthetic(max_procs: u64, computer: &str) -> Self {
        let mut h = SwfHeader::default();
        h.ingest_line(&format!("Computer: {computer}"));
        h.ingest_line(&format!("MaxProcs: {max_procs}"));
        h.ingest_line("Note: synthetic log generated by predictsim-workload");
        h
    }

    /// Machine size to simulate with: `MaxProcs`, falling back to
    /// `MaxNodes`. `None` when the header names neither (a loader then
    /// falls back to the largest job).
    pub fn machine_size(&self) -> Option<u64> {
        self.max_procs.or(self.max_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_keys() {
        let mut h = SwfHeader::default();
        h.ingest_line("; MaxProcs: 1152");
        h.ingest_line(";MaxNodes: 144");
        h.ingest_line("; UnixStartTime: 1044057078");
        h.ingest_line("; TimeZoneString: US/Pacific");
        h.ingest_line("; Computer: IBM SP Blue Horizon");
        h.ingest_line("; MaxJobs: 243314");
        h.ingest_line("; MaxRuntime: 129600");
        h.ingest_line("; Installation: SDSC");
        assert_eq!(h.max_procs, Some(1152));
        assert_eq!(h.max_nodes, Some(144));
        assert_eq!(h.unix_start_time, Some(1044057078));
        assert_eq!(h.time_zone.as_deref(), Some("US/Pacific"));
        assert_eq!(h.computer.as_deref(), Some("IBM SP Blue Horizon"));
        assert_eq!(h.max_jobs, Some(243314));
        assert_eq!(h.max_runtime, Some(129600));
        assert_eq!(h.installation.as_deref(), Some("SDSC"));
        assert_eq!(h.machine_size(), Some(1152));
    }

    #[test]
    fn unknown_keys_preserved_in_raw() {
        let mut h = SwfHeader::default();
        h.ingest_line("; Acknowledge: someone");
        h.ingest_line("; free-text note without colon");
        assert_eq!(h.raw_lines.len(), 2);
        assert!(h.raw_lines[0].starts_with("Acknowledge"));
    }

    #[test]
    fn machine_size_falls_back_to_nodes() {
        let mut h = SwfHeader::default();
        h.ingest_line("; MaxNodes: 64");
        assert_eq!(h.machine_size(), Some(64));
        assert_eq!(SwfHeader::default().machine_size(), None);
    }

    #[test]
    fn malformed_values_ignored() {
        let mut h = SwfHeader::default();
        h.ingest_line("; MaxProcs: not-a-number");
        assert_eq!(h.max_procs, None);
    }

    #[test]
    fn synthetic_header_is_parseable() {
        let h = SwfHeader::synthetic(512, "TestMachine");
        assert_eq!(h.max_procs, Some(512));
        assert_eq!(h.computer.as_deref(), Some("TestMachine"));
        assert_eq!(h.raw_lines.len(), 3);
    }
}
