//! The four workloads. Each is a closed loop: the next operation is
//! issued only after the previous one returned.

pub mod churn_expiry;
mod durable;
pub mod sensor_scan;
pub mod session_wire;
pub mod view_replica;

use crate::harness::Recorder;
use crate::Limit;

pub trait Workload: Sized {
    /// Builds the system to its steady state: schema, load, server bind,
    /// connect, warm-up. Timed as `setup_s`. A `traced` workload also
    /// builds the shadow structures its probes need. The warm-up's
    /// operations are checked like any others and recorded into `warm`.
    fn setup(seed: u64, traced: bool, warm: &mut Recorder) -> Self;

    /// Runs whole rounds until `limit` is reached (and the workload is at
    /// a point where it may stop), recording into `rec`.
    fn run(&mut self, limit: Limit, rec: &mut Recorder);

    /// Post-run checks and measurements (crash recovery, counters).
    fn finish(self, rec: &mut Recorder);
}
