//! The `--store DIR` step the search benches share.

use std::path::Path;

use edc_explore::{Store, StoreHandle};

/// Opens the persistent evaluation store at `dir`, or exits with status
/// 1 naming the directory and the error.
pub fn open_or_exit(dir: &Path) -> StoreHandle {
    match Store::open(dir) {
        Ok(store) => store.into_handle(),
        Err(e) => {
            eprintln!("cannot open store at {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}
