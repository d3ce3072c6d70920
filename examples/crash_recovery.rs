//! Application-independent recovery demo (the paper's headline property).
//!
//! A "database writer" starts a transaction and crashes mid-commit (via a
//! failpoint). The writer never comes back: a completely different client —
//! which only has *read* access — still sees consistent data, because the
//! daemon replayed the registered logs when it restarted, before any
//! application mapped the data.
//!
//! Run with `cargo run --example crash_recovery`.

use puddled::{Daemon, DaemonConfig};
use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
use puddles_pmem::failpoint;

#[repr(C)]
struct Account {
    balance: u64,
    updates: u64,
}
impl_pm_type!(Account, "examples::crash_recovery::Account", []);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pm_dir = std::env::temp_dir().join("puddles-crash-recovery");
    let _ = std::fs::remove_dir_all(&pm_dir);
    let config = DaemonConfig::for_testing(&pm_dir);

    // --- The writer application ------------------------------------------
    {
        let daemon = Daemon::start(config.clone())?;
        let writer = PuddleClient::connect_local(&daemon)?;
        let pool = writer.create_pool("bank", PoolOptions::default().mode(0o644))?;
        pool.tx(|tx| {
            pool.create_root(
                tx,
                Account {
                    balance: 1000,
                    updates: 0,
                },
            )
        })?;
        let root: PmPtr<Account> = pool.root().unwrap();

        // Crash in the middle of the commit sequence. The commit runs on
        // this thread, so the crash point is armed for this thread.
        failpoint::arm_scoped(failpoint::names::COMMIT_AFTER_UNDO_FLUSH, 0);
        let err = pool
            .tx(|tx| {
                let acc = pool.deref_mut(root)?;
                tx.set(&mut acc.balance, 0)?; // half-done transfer
                tx.set(&mut acc.updates, 1)?;
                Ok(())
            })
            .unwrap_err();
        failpoint::clear_current_thread();
        println!("writer crashed mid-commit: {err}");
        // The writer process is gone; it never performs recovery.
    }

    // --- A different application, after "reboot" --------------------------
    let daemon = Daemon::start(config)?; // recovery runs here, inside puddled
    let reader = PuddleClient::connect_local(&daemon)?;
    let pool = reader.open_pool("bank")?;
    let root: PmPtr<Account> = pool.root().unwrap();
    let account = pool.deref(root)?;
    println!(
        "reader sees balance = {}, updates = {} (consistent: rolled back)",
        account.balance, account.updates
    );
    assert_eq!(account.balance, 1000);
    assert_eq!(account.updates, 0);
    Ok(())
}
