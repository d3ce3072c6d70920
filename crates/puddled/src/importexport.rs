//! Pool export and import: shipping PM data between machines (§4.2
//! "Relocation on import").
//!
//! Export copies a pool's puddle files plus a manifest (pool structure,
//! assigned addresses, pointer maps) into a directory; the data keeps its
//! raw in-memory representation — no serialization. A manifest holds one
//! address per puddle, so a pool with members still awaiting a pointer
//! rewrite (some pointing at new addresses, some at old) is refused until
//! it has been mapped. Import checks the manifest against the files it
//! names, registers fresh copies of those puddles in this machine's global
//! space, assigns them new addresses and records the address each was
//! exported at: the old→new table the client library rewrites pointers
//! with, as each puddle is first mapped, is computed from those
//! ([`crate::registry::Registry::relocation`]).

use crate::acl;
use crate::registry::{import_table, PuddleRecord, Rewrite};
use crate::service::{pool_exists, DaemonError, DaemonInner, DaemonResult};
use crate::wal::{self, RegistryOp};
use puddles_pmem::PAGE_SIZE;
use puddles_proto::{
    Credentials, ErrorCode, PoolInfo, PtrMapDecl, PuddleId, PuddlePurpose, Translation,
};
use serde::{Deserialize, Serialize};
use std::ffi::OsStr;
use std::fs;
use std::path::{Path, PathBuf};

/// One puddle inside an export manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExportedPuddle {
    /// UUID the puddle had on the exporting machine.
    pub id: PuddleId,
    /// Size in bytes.
    pub size: u64,
    /// Address the puddle's pointers are written for.
    pub assigned_addr: u64,
    /// File name of the copied puddle inside the export directory.
    pub file: String,
    /// Permission bits to apply on import.
    pub mode: u32,
}

/// The manifest written alongside exported puddle files.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExportManifest {
    /// Name of the exported pool.
    pub pool: String,
    /// UUID (on the exporting machine) of the root puddle.
    pub root: PuddleId,
    /// Every puddle in the pool.
    pub puddles: Vec<ExportedPuddle>,
    /// Pointer maps needed to rewrite pointers in the pool.
    pub ptr_maps: Vec<PtrMapDecl>,
}

/// File name of the manifest inside an export directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Exports `pool_name` into directory `dest`. Refuses, before anything is
/// created or copied, a pool with a member still awaiting a pointer rewrite.
pub(crate) fn export_pool(
    inner: &DaemonInner,
    creds: Credentials,
    pool_name: &str,
    dest: &str,
) -> DaemonResult<PathBuf> {
    // The pool, its members and the pointer maps, as of one instant.
    let (root, records, ptr_maps) = inner.registry.read(|data| {
        let pool = data
            .pools
            .get(pool_name)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "pool not found"))?;
        let records: Vec<PuddleRecord> = data.members(pool_name).cloned().collect();
        if records.iter().any(|r| !r.allows(creds, acl::Access::Read)) {
            return Err(DaemonError::new(
                ErrorCode::PermissionDenied,
                "cannot export a pool you cannot read",
            ));
        }
        let pending = records.iter().filter(|r| r.rewrite != Rewrite::Clean);
        let (pending, all) = (pending.count(), records.len());
        if pending > 0 {
            return Err(DaemonError::new(
                ErrorCode::InvalidRequest,
                format!(
                    "{pending} of the {all} puddles of pool `{pool_name}` still await a pointer \
                     rewrite: map the pool (Pool::ensure_all_mapped) to clear them, then export"
                ),
            ));
        }
        let ptr_maps = data.ptr_maps.values().cloned().collect();
        Ok((pool.root, records, ptr_maps))
    })?;

    let dest = Path::new(dest).to_path_buf();
    fs::create_dir_all(&dest).map_err(|e| DaemonError::new(ErrorCode::Internal, e.to_string()))?;
    let base = inner.gspace.base() as u64;
    let mut manifest = ExportManifest {
        pool: pool_name.to_string(),
        root,
        puddles: Vec::new(),
        ptr_maps,
    };
    for record in &records {
        let file_name = format!("{}.pud", record.id.to_hex());
        inner
            .pmdir
            .copy_puddle_file(&record.file(), &dest.join(&file_name))
            .map_err(DaemonError::from)?;
        manifest.puddles.push(ExportedPuddle {
            id: record.id,
            size: record.size,
            assigned_addr: base + record.offset,
            file: file_name,
            mode: record.mode,
        });
    }
    let manifest_bytes = serde_json::to_vec_pretty(&manifest)
        .map_err(|e| DaemonError::new(ErrorCode::Internal, e.to_string()))?;
    fs::write(dest.join(MANIFEST_FILE), manifest_bytes)
        .map_err(|e| DaemonError::new(ErrorCode::Internal, e.to_string()))?;
    Ok(dest)
}

/// What an import believes of a manifest only after checking: every `file`
/// is a plain name (so it names a file *in* `src`) of a file exactly `size`
/// bytes long, a size the daemon itself would have granted — whole pages,
/// at least two — that fits above `assigned_addr`, which is not 0 (a
/// record's "never imported"), and `root` is listed. Returns the root's
/// position.
fn check_manifest(src: &Path, manifest: &ExportManifest) -> DaemonResult<usize> {
    for exported in &manifest.puddles {
        let (file, size, addr) = (&exported.file, exported.size, exported.assigned_addr);
        let plain = Path::new(file).file_name() == Some(OsStr::new(file));
        let holds = plain.then(|| fs::metadata(src.join(file)).ok()).flatten();
        let holds = holds.map(|meta| meta.len());
        let granted = size.is_multiple_of(PAGE_SIZE as u64) && size >= 2 * PAGE_SIZE as u64;
        let fits = addr != 0 && addr.checked_add(size).is_some();
        if holds != Some(size) || !granted || !fits {
            return Err(DaemonError::new(
                ErrorCode::InvalidRequest,
                format!(
                    "manifest entry `{file}`, {size} bytes at {addr:#x}: must be a plain name \
                     of a file in the export holding exactly that, whole pages and at least \
                     two, exported at an address, not 0, with that much above it; found \
                     {holds:?}"
                ),
            ));
        }
    }
    let root = manifest.puddles.iter().position(|p| p.id == manifest.root);
    root.ok_or_else(|| {
        DaemonError::new(
            ErrorCode::InvalidRequest,
            "manifest root not in puddle list",
        )
    })
}

/// Imports the pool exported at `src` under the name `new_name`.
///
/// Returns the new pool plus the address translations the client library
/// needs while rewriting pointers. The whole import — the pool, every
/// puddle record, the pointer maps — is one registry transaction, so it
/// either happened or left no trace; a refusal gives the copied files and
/// the granted space back (a bad manifest is refused before either exists).
pub(crate) fn import_pool(
    inner: &DaemonInner,
    creds: Credentials,
    src: &str,
    new_name: &str,
) -> DaemonResult<(PoolInfo, Vec<Translation>)> {
    let src = Path::new(src);
    let manifest_bytes = fs::read(src.join(MANIFEST_FILE))
        .map_err(|e| DaemonError::new(ErrorCode::NotFound, format!("manifest: {e}")))?;
    let manifest: ExportManifest = serde_json::from_slice(&manifest_bytes)
        .map_err(|e| DaemonError::new(ErrorCode::InvalidRequest, format!("manifest: {e}")))?;
    let root = check_manifest(src, &manifest)?;
    let reg = &inner.registry;
    // Advisory, to fail before copying anything; the transaction decides.
    if reg.read(|data| data.pools.contains_key(new_name)) {
        return Err(pool_exists(new_name));
    }

    // Assign every imported puddle a fresh UUID and a fresh address; the
    // address it was exported at is all the record keeps of the old one.
    let base = inner.gspace.base() as u64;
    let mut records: Vec<PuddleRecord> = Vec::new();
    let mut copied = 0;
    let prepared = (|| -> DaemonResult<()> {
        for exported in &manifest.puddles {
            let offset = reg.alloc_space(exported.size).map_err(|_| {
                DaemonError::new(ErrorCode::OutOfSpace, "global puddle space exhausted")
            })?;
            records.push(PuddleRecord {
                id: reg.fresh_id(),
                size: exported.size,
                offset,
                purpose: PuddlePurpose::Data,
                owner_uid: creds.uid,
                owner_gid: creds.gid,
                mode: exported.mode,
                pool: Some(new_name.to_string()),
                old_addr: exported.assigned_addr,
                rewrite: Rewrite::Import,
            });
        }
        // Nothing to rewrite if every puddle landed where it was exported.
        if records.iter().all(|r| r.old_addr == base + r.offset) {
            records.iter_mut().for_each(|r| r.rewrite = Rewrite::Clean);
        }
        // The pool first: `apply_op` files a member under a pool that exists.
        let pool = RegistryOp::PutPool {
            name: new_name.to_string(),
            root: records[root].id,
        };
        let puts = records.iter().cloned().map(RegistryOp::PutPuddle);
        let ptr_maps = manifest.ptr_maps.iter().cloned().map(RegistryOp::PutPtrMap);
        let import: Vec<RegistryOp> = [pool].into_iter().chain(puts).chain(ptr_maps).collect();
        // The manifest fixes the record's size: refuse one the WAL would
        // before copying a file.
        wal::encode_ops(&import)?;
        for (record, exported) in records.iter().zip(&manifest.puddles) {
            copied += 1;
            fs::copy(
                src.join(&exported.file),
                inner.pmdir.puddle_path(&record.file()),
            )
            .map_err(|e| DaemonError::new(ErrorCode::Internal, e.to_string()))?;
        }
        reg.transact(|data, ops| {
            if data.pools.contains_key(new_name) {
                return Err(pool_exists(new_name));
            }
            ops.extend(import);
            Ok(())
        })
    })();
    match prepared {
        Ok(()) => {
            reg.commit()?;
            let info = PoolInfo {
                name: new_name.to_string(),
                root_puddle: records[root].id,
                puddles: records.iter().map(|r| r.id).collect(),
            };
            // The table of the records this import committed: what
            // `GetRelocation` derives from them.
            Ok((info, import_table(base, records.iter())))
        }
        Err(e) => {
            for record in &records[..copied] {
                let _ = inner.pmdir.delete_puddle_file(&record.file());
            }
            for record in &records {
                reg.free_space(record.offset, record.size);
            }
            Err(e)
        }
    }
}
