//! The `--store DIR` step the search benches share.

use std::path::Path;

use edc_explore::{Store, StoreHandle};

/// Opens the persistent evaluation store at `dir`; the error names the
/// directory.
pub fn open(dir: &Path) -> Result<StoreHandle, String> {
    Store::open(dir)
        .map(Store::into_handle)
        .map_err(|e| format!("cannot open store at {}: {e}", dir.display()))
}
