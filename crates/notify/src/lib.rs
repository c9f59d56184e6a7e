//! The private-notification campaign (paper §6.4, §7.7).
//!
//! On 2021-11-15 the authors emailed `postmaster@` every vulnerable
//! domain, deduplicating so that a domain with several vulnerable hosts
//! got one email and several domains sharing the same MX set got one
//! email between them. Each message embedded a uniquely identified
//! tracking image; loading it revealed the mail had been opened.
//!
//! The reproduction delivers the notifications *through the simulated
//! SMTP substrate*: a bounce is a real protocol rejection by the target
//! host's configured behaviour, not a coin flip. Opens and their (tiny)
//! patching effect come from the world's pre-sampled patch causes.
//!
//! Paper funnel, for calibration: 6,488 sent; 2,054 (31.6%) undelivered;
//! 512 of 4,434 delivered (12%) opened; 177 openers eventually patched;
//! 9 patched between private and public disclosure; 37 non-recipients
//! patched in that window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod pixel;

pub use campaign::{
    FormatArm, FormatExperiment, NotificationCampaign, NotificationRecord, NotificationReport,
};
pub use pixel::{PixelHit, PixelLog};
