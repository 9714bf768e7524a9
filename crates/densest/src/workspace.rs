//! Per-thread reusable buffers for the solvers that run once per sampled
//! world ([`crate::solve`], [`crate::peeling`]).

use std::cell::RefCell;
use std::thread::LocalKey;

/// Runs `f` on this thread's workspace in `key`, or on a fresh one when it
/// is busy (a caller up the stack already holds it) or already torn down
/// (thread exit).
pub(crate) fn with<W: Default + 'static, R>(
    key: &'static LocalKey<RefCell<W>>,
    f: impl FnOnce(&mut W) -> R,
) -> R {
    let mut f = Some(f);
    let ran = key.try_with(|cell| {
        let mut ws = cell.try_borrow_mut().ok()?;
        f.take().map(|f| f(&mut ws))
    });
    match ran {
        Ok(Some(r)) => r,
        // The closure never got the workspace, so `f` is still there.
        _ => f.take().expect("f unused")(&mut W::default()),
    }
}
