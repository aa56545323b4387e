//! The one helper the test adversaries write their rows through: each
//! decides what one recipient hears, and `Adversary::row` asks for the
//! faulty sender's whole row.

use shifting_gears::sim::{Payload, ProcessId};

/// Writes `lie(recipient)` into every slot of `sender`'s `row` but its
/// own, recipients ascending.
pub fn each_recipient(
    sender: ProcessId,
    row: &mut [Payload],
    mut lie: impl FnMut(ProcessId) -> Payload,
) {
    for (r, slot) in row.iter_mut().enumerate() {
        if r != sender.index() {
            *slot = lie(ProcessId(r));
        }
    }
}
