//! The quiet panic hook, in a process of its own: it replaces the
//! process-wide panic hook, which no other test may see.

use std::panic::{self, catch_unwind};
use std::sync::Mutex;

use secdir_machine::panics::{contain, quiet_contained_panics};

/// The quiet hook hands an uncontained panic to the hook it replaced and
/// keeps a contained one from it.
#[test]
fn only_uncontained_panics_reach_the_previous_hook() {
    static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let seen = || SEEN.lock().unwrap_or_else(|e| e.into_inner());
    let original = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let message = info.payload_as_str().unwrap_or_default().to_string();
        seen().push(message);
    }));
    quiet_contained_panics();
    let contained = contain(|| panic!("contained {}", 1));
    let uncontained = catch_unwind(|| panic!("uncontained {}", 2));
    panic::set_hook(original);
    assert_eq!(contained, Err::<(), _>("contained 1".to_string()));
    assert!(uncontained.is_err());
    let seen = seen();
    assert_eq!(*seen, ["uncontained 2"]);
}
