//! Pool export and import: shipping PM data between machines (§4.2
//! "Relocation on import").
//!
//! Export copies a pool's puddle files plus a manifest (pool structure,
//! assigned addresses, pointer maps) into a directory; the data keeps its
//! raw in-memory representation — no serialization. Import registers fresh
//! copies of those puddles in this machine's global space, assigns them new
//! addresses, and records the old→new translations so the client library
//! can rewrite pointers incrementally when the puddles are first mapped.

use crate::acl;
use crate::registry::{PoolRecord, PuddleRecord};
use crate::service::{pool_exists, DaemonError, DaemonInner, DaemonResult};
use crate::wal::{self, RegistryOp};
use puddles_pmem::PmError;
use puddles_proto::{
    Credentials, ErrorCode, PoolInfo, PtrMapDecl, PuddleId, PuddlePurpose, Translation,
};
use serde::{Deserialize, Serialize};
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

/// Exports `pool_name` into directory `dest`.
pub(crate) fn export_pool(
    inner: &DaemonInner,
    creds: Credentials,
    pool_name: &str,
    dest: &str,
) -> DaemonResult<PathBuf> {
    let dest = Path::new(dest).to_path_buf();
    fs::create_dir_all(&dest).map_err(|e| DaemonError::new(ErrorCode::Internal, e.to_string()))?;

    // The pool, its members and the pointer maps, as of one instant.
    let (pool, records, ptr_maps) = inner.registry.read(|data| {
        let pool = data
            .pools
            .get(pool_name)
            .ok_or_else(|| DaemonError::new(ErrorCode::NotFound, "pool not found"))?;
        let records: Vec<PuddleRecord> = pool
            .puddles
            .iter()
            .filter_map(|id| data.puddles.get(id).cloned())
            .collect();
        if records.iter().any(|r| !r.allows(creds, acl::Access::Read)) {
            return Err(DaemonError::new(
                ErrorCode::PermissionDenied,
                "cannot export a pool you cannot read",
            ));
        }
        Ok((
            pool.clone(),
            records,
            data.ptr_maps.values().cloned().collect(),
        ))
    })?;

    let base = inner.gspace.base() as u64;
    let mut manifest = ExportManifest {
        pool: pool.name,
        root: pool.root,
        puddles: Vec::new(),
        ptr_maps,
    };
    for record in &records {
        let file_name = format!("{}.pud", record.id.to_hex());
        inner
            .pmdir
            .copy_puddle_file(&record.file, &dest.join(&file_name))
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

/// Imports the pool exported at `src` under the name `new_name`.
///
/// Returns the new pool plus the address translations the client library
/// needs while rewriting pointers. The whole import — every puddle record,
/// the pointer maps, the pool — is one registry transaction, so it either
/// happened or left no trace; a refusal gives the copied files and the
/// granted space back.
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
    let reg = &inner.registry;
    // Advisory, to fail before copying anything; the transaction decides.
    if reg.pool(new_name).is_some() {
        return Err(pool_exists(new_name));
    }

    // Assign every imported puddle a fresh UUID and a fresh address,
    // building the old→new translation table.
    let base = inner.gspace.base() as u64;
    let mut records: Vec<PuddleRecord> = Vec::new();
    let mut translations: Vec<Translation> = Vec::new();
    let mut copied = 0;
    let prepared = (|| -> DaemonResult<PoolInfo> {
        for exported in &manifest.puddles {
            let id = reg.fresh_id();
            let offset = reg.alloc_space(exported.size).map_err(|_| {
                DaemonError::new(ErrorCode::OutOfSpace, "global puddle space exhausted")
            })?;
            translations.push(Translation {
                old_addr: exported.assigned_addr,
                new_addr: base + offset,
                len: exported.size,
            });
            records.push(PuddleRecord {
                id,
                size: exported.size,
                offset,
                file: id.to_hex(),
                purpose: PuddlePurpose::Data,
                owner_uid: creds.uid,
                owner_gid: creds.gid,
                mode: exported.mode,
                pool: Some(new_name.to_string()),
                needs_rewrite: false,
                translations: Vec::new(),
            });
        }
        let root = manifest.puddles.iter().position(|p| p.id == manifest.root);
        let root = root.ok_or_else(|| {
            DaemonError::new(
                ErrorCode::InvalidRequest,
                "manifest root not in puddle list",
            )
        })?;
        let pool = PoolRecord {
            name: new_name.to_string(),
            root: records[root].id,
            puddles: records.iter().map(|r| r.id).collect(),
        };
        let info = pool.to_info();
        // Every imported puddle needs a pointer rewrite against the full
        // translation table.
        let needs_rewrite = translations.iter().any(|t| t.old_addr != t.new_addr);
        let puts = records.iter().map(|record| {
            RegistryOp::PutPuddle(PuddleRecord {
                needs_rewrite,
                translations: translations.clone(),
                ..record.clone()
            })
        });
        let ptr_maps = manifest.ptr_maps.iter().cloned().map(RegistryOp::PutPtrMap);
        let import: Vec<RegistryOp> = puts
            .chain(ptr_maps)
            .chain([RegistryOp::PutPool(pool)])
            .collect();
        // The manifest fixes the record's size: refuse one the WAL would
        // before copying a file.
        let len = wal::encode_ops(&import).len();
        if len > wal::MAX_RECORD {
            return Err(PmError::RecordTooLarge {
                len,
                max: wal::MAX_RECORD,
            }
            .into());
        }
        for (record, exported) in records.iter().zip(&manifest.puddles) {
            copied += 1;
            fs::copy(
                src.join(&exported.file),
                inner.pmdir.puddle_path(&record.file),
            )
            .map_err(|e| DaemonError::new(ErrorCode::Internal, e.to_string()))?;
        }
        reg.transact(|data, ops| {
            if data.pools.contains_key(new_name) {
                return Err(pool_exists(new_name));
            }
            ops.extend(import);
            Ok(info)
        })
    })();
    match prepared {
        Ok(info) => {
            reg.commit()?;
            Ok((info, translations))
        }
        Err(e) => {
            for record in &records[..copied] {
                let _ = inner.pmdir.delete_puddle_file(&record.file);
            }
            for record in &records {
                reg.free_space(record.offset, record.size);
            }
            Err(e)
        }
    }
}
