//! The measurement calendar (paper §5.3 / §6.4).
//!
//! Day 0 is 2021-10-11, the initial measurement. All campaign scheduling
//! is expressed in these day numbers; [`Timeline::date_label`] converts
//! back to calendar dates for report axes.

use spfail_netsim::{SimDuration, SimTime};

/// Milestones of the measurement, as day offsets from 2021-10-11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline;

impl Timeline {
    /// Initial measurement of all domains (2021-10-11).
    pub const INITIAL: u16 = 0;
    /// Every-2-days longitudinal measurements begin (2021-10-26).
    pub const LONGITUDINAL_START: u16 = 15;
    /// Private notifications sent to vulnerable servers (2021-11-15).
    pub const PRIVATE_NOTIFICATION: u16 = 35;
    /// Measurements paused (2021-11-30).
    pub const WINDOW1_END: u16 = 50;
    /// Measurements resume (2022-01-15).
    pub const WINDOW2_START: u16 = 96;
    /// CVE-2021-33912/33913 public disclosure (2022-01-19).
    pub const PUBLIC_DISCLOSURE: u16 = 100;
    /// Debian ships the patched libSPF2 package (2022-01-20).
    pub const DEBIAN_PATCH: u16 = 101;
    /// Final longitudinal measurement (2022-02-14).
    pub const END: u16 = 126;
    /// Interval between longitudinal measurements.
    pub const ROUND_INTERVAL: u16 = 2;

    /// The measurement days of window 1 (inclusive bounds).
    pub fn window1_days() -> impl Iterator<Item = u16> {
        (Self::LONGITUDINAL_START..=Self::WINDOW1_END).step_by(Self::ROUND_INTERVAL as usize)
    }

    /// The measurement days of window 2 (inclusive bounds).
    pub fn window2_days() -> impl Iterator<Item = u16> {
        (Self::WINDOW2_START..=Self::END).step_by(Self::ROUND_INTERVAL as usize)
    }

    /// All longitudinal measurement days (both windows).
    pub fn all_round_days() -> Vec<u16> {
        Self::window1_days().chain(Self::window2_days()).collect()
    }

    /// Convert a day number to simulated time (midnight of that day).
    pub fn day_to_time(day: u16) -> SimTime {
        SimTime::EPOCH + SimDuration::from_days(u64::from(day))
    }

    /// The calendar date of a measurement day, as `YYYY-MM-DD`.
    pub fn date_label(day: u16) -> String {
        // Month lengths from 2021-10-11 onwards.
        const MONTHS: [(u16, u16, u16); 6] = [
            (2021, 10, 31),
            (2021, 11, 30),
            (2021, 12, 31),
            (2022, 1, 31),
            (2022, 2, 28),
            (2022, 3, 31),
        ];
        let mut day_of_month = 11 + day; // start at October 11th
        for (year, month, len) in MONTHS {
            if day_of_month <= len {
                return format!("{year}-{month:02}-{day_of_month:02}");
            }
            day_of_month -= len;
        }
        format!("2022-04-{day_of_month:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milestone_dates_match_the_paper() {
        assert_eq!(Timeline::date_label(Timeline::INITIAL), "2021-10-11");
        assert_eq!(
            Timeline::date_label(Timeline::LONGITUDINAL_START),
            "2021-10-26"
        );
        assert_eq!(
            Timeline::date_label(Timeline::PRIVATE_NOTIFICATION),
            "2021-11-15"
        );
        assert_eq!(Timeline::date_label(Timeline::WINDOW1_END), "2021-11-30");
        assert_eq!(Timeline::date_label(Timeline::WINDOW2_START), "2022-01-15");
        assert_eq!(
            Timeline::date_label(Timeline::PUBLIC_DISCLOSURE),
            "2022-01-19"
        );
        assert_eq!(Timeline::date_label(Timeline::DEBIAN_PATCH), "2022-01-20");
        assert_eq!(Timeline::date_label(Timeline::END), "2022-02-14");
    }

    #[test]
    fn rounds_are_every_two_days_within_windows() {
        let days = Timeline::all_round_days();
        assert_eq!(days.first(), Some(&15));
        assert!(days.contains(&49));
        assert!(!days.iter().any(|d| (51..96).contains(d)), "gap respected");
        assert!(days.contains(&96));
        assert_eq!(days.last(), Some(&126));
        for pair in days.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(gap == 2 || gap > 40, "either a round step or the pause");
        }
    }

    #[test]
    fn day_time_round_trip() {
        for day in [0u16, 1, 50, 126] {
            assert_eq!(Timeline::day_to_time(day).as_days(), u64::from(day));
        }
    }
}
