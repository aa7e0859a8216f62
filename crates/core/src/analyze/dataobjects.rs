//! The data-object views — the paper's headline contribution
//! (§3.2.5): metrics aggregated by structure type (Figure 6), the
//! per-member expansion (Figure 7), and the backtracking
//! effectiveness analysis.

use std::collections::HashMap;
use std::fmt::Write as _;

use minic::MemDesc;

use super::views::sort_by_metric;
use super::{fmt_val_pct, Analysis, UnknownKind};
use crate::batch::{AttrTag, EventBatch, GroupKey};

fn intern_key(
    pool: &mut Vec<DataObjectKey>,
    index: &mut HashMap<DataObjectKey, u64>,
    key: DataObjectKey,
) -> u64 {
    *index.entry(key.clone()).or_insert_with(|| {
        pool.push(key);
        (pool.len() - 1) as u64
    })
}

/// Group by [`DataObjectKey`] over the data columns — the Figure 6
/// keyer. Every interned descriptor and `Unk*` tag is mapped to a
/// pooled key id up front, so the key column is two table lookups
/// per row and typed keys are cloned once per group, not per event.
struct ByDataObject {
    /// Is column `c` a backtracked data column?
    col_is_data: Vec<bool>,
    /// Pooled key id per interned descriptor id.
    desc_raw: Vec<u64>,
    /// Pooled key id per `AttrTag` discriminant (`Unk*` tags only).
    tag_raw: [u64; 7],
    /// The pool `desc_raw`/`tag_raw` index into.
    pool: Vec<DataObjectKey>,
}

impl ByDataObject {
    fn new(batch: &EventBatch, data_cols: &[usize], ncols: usize) -> ByDataObject {
        let mut col_is_data = vec![false; ncols];
        for &c in data_cols {
            col_is_data[c] = true;
        }
        let mut pool = Vec::new();
        let mut index = HashMap::new();
        let desc_raw = batch
            .descs
            .iter()
            .map(|d| {
                let key = match d {
                    MemDesc::Member { struct_name, .. } => {
                        DataObjectKey::Struct(struct_name.clone())
                    }
                    MemDesc::Scalar { .. } => DataObjectKey::Scalars,
                    _ => DataObjectKey::Unknown(UnknownKind::Unspecified),
                };
                intern_key(&mut pool, &mut index, key)
            })
            .collect();
        let mut tag_raw = [u64::MAX; 7];
        for tag in [
            AttrTag::UnkUnspecified,
            AttrTag::UnkUnresolvable,
            AttrTag::UnkUnascertainable,
            AttrTag::UnkUnidentified,
            AttrTag::UnkUnverifiable,
        ] {
            tag_raw[tag as usize] = intern_key(
                &mut pool,
                &mut index,
                DataObjectKey::Unknown(tag.unknown_kind().unwrap()),
            );
        }
        ByDataObject {
            col_is_data,
            desc_raw,
            tag_raw,
            pool,
        }
    }
}

impl GroupKey for ByDataObject {
    type Key = DataObjectKey;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<DataObjectKey> {
        self.raw_of(batch, i)
            .map(|raw| self.pool[raw as usize].clone())
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: std::ops::Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        for i in range {
            out.push(self.raw_of(batch, i));
        }
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> DataObjectKey {
        self.pool[raw as usize].clone()
    }
}

impl ByDataObject {
    fn raw_of(&self, batch: &EventBatch, i: usize) -> Option<u64> {
        if !self.col_is_data[batch.col[i] as usize] {
            return None;
        }
        match batch.tag[i] {
            AttrTag::Plain => None,
            AttrTag::Data => Some(self.desc_raw[batch.desc[i] as usize]),
            tag => Some(self.tag_raw[tag as usize]),
        }
    }
}

/// Group by member name within one target structure — the Figure 7
/// keyer. The raw key is the interned descriptor id; descriptors of
/// other structures resolve to `None` via a precomputed table.
struct ByMemberName {
    col_is_data: Vec<bool>,
    /// Member name per interned descriptor id, for members of the
    /// target structure only.
    member: Vec<Option<String>>,
}

impl ByMemberName {
    fn new(batch: &EventBatch, data_cols: &[usize], ncols: usize, target: &str) -> ByMemberName {
        let mut col_is_data = vec![false; ncols];
        for &c in data_cols {
            col_is_data[c] = true;
        }
        let member = batch
            .descs
            .iter()
            .map(|d| match d {
                MemDesc::Member {
                    struct_name,
                    member,
                    ..
                } if struct_name == target => Some(member.clone()),
                _ => None,
            })
            .collect();
        ByMemberName {
            col_is_data,
            member,
        }
    }
}

impl GroupKey for ByMemberName {
    type Key = String;

    fn key(&self, batch: &EventBatch, i: usize) -> Option<String> {
        if !self.col_is_data[batch.col[i] as usize] || batch.tag[i] != AttrTag::Data {
            return None;
        }
        self.member[batch.desc[i] as usize].clone()
    }

    fn key_column(
        &self,
        batch: &EventBatch,
        range: std::ops::Range<usize>,
        out: &mut Vec<Option<u64>>,
    ) -> bool {
        for i in range {
            let keep = self.col_is_data[batch.col[i] as usize]
                && batch.tag[i] == AttrTag::Data
                && self.member[batch.desc[i] as usize].is_some();
            out.push(keep.then(|| batch.desc[i] as u64));
        }
        true
    }

    fn decode_key(&self, _batch: &EventBatch, raw: u64) -> String {
        self.member[raw as usize].clone().unwrap()
    }
}

/// The key a data-object row aggregates under.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataObjectKey {
    /// `{structure:arc -}`
    Struct(String),
    /// Named scalars and arrays.
    Scalars,
    /// One of the §3.2.5 indeterminate categories.
    Unknown(UnknownKind),
}

/// One row of the Figure 6 table.
#[derive(Clone, Debug)]
pub struct DataObjectRow {
    pub name: String,
    pub samples: Vec<u64>,
}

/// The Figure 7 expansion of one structure.
#[derive(Clone, Debug)]
pub struct StructExpansion {
    pub struct_name: String,
    /// Whole-struct samples per column.
    pub total: Vec<u64>,
    /// (offset, rendered member, samples) per member, in layout order —
    /// including members that were never referenced, as in Figure 7.
    pub members: Vec<(u64, String, Vec<u64>)>,
    pub struct_size: u64,
}

/// Backtracking effectiveness per data column (§3.2.5): 100% minus
/// the metric values associated with `(Unresolvable)` and
/// `(Unascertainable)`.
#[derive(Clone, Debug)]
pub struct EffectivenessRow {
    pub column: usize,
    pub title: String,
    pub total: u64,
    pub unresolvable: u64,
    pub unascertainable: u64,
    pub effectiveness_pct: f64,
}

impl Analysis<'_> {
    /// Figure 6: data objects ranked by the given data column. Only
    /// backtracked memory counters have data-object information.
    pub fn data_objects(&self, sort_col: usize) -> Vec<DataObjectRow> {
        let data_cols = self.data_columns();
        let map = self.kernel(&ByDataObject::new(
            &self.batch,
            &data_cols,
            self.columns.len(),
        ));

        let ncols = self.columns.len();
        let mut unknown_total = vec![0u64; ncols];
        for (k, v) in &map {
            if matches!(k, DataObjectKey::Unknown(_)) {
                for (t, x) in unknown_total.iter_mut().zip(v) {
                    *t += x;
                }
            }
        }

        let mut rows: Vec<DataObjectRow> = map
            .into_iter()
            .map(|(k, samples)| DataObjectRow {
                name: match k {
                    DataObjectKey::Struct(s) => format!("{{structure:{s} -}}"),
                    DataObjectKey::Scalars => "<Scalars>".to_string(),
                    DataObjectKey::Unknown(u) => u.label().to_string(),
                },
                samples,
            })
            .collect();
        sort_by_metric(
            &mut rows,
            |r| r.samples[sort_col],
            |a, b| a.name.cmp(&b.name),
        );

        // <Total> and <Unknown> pseudo-rows, as in Figure 6.
        let b = &self.batch;
        let mut total = vec![0u64; ncols];
        for i in 0..b.len() {
            let col = b.col[i] as usize;
            if data_cols.contains(&col) && b.tag[i] != AttrTag::Plain {
                total[col] += 1;
            }
        }
        let mut out = vec![DataObjectRow {
            name: "<Total>".to_string(),
            samples: total,
        }];
        if unknown_total.iter().any(|&x| x > 0) {
            // Insert <Unknown> at its sorted position later; simplest
            // is to add and re-sort the tail.
            rows.push(DataObjectRow {
                name: "<Unknown>".to_string(),
                samples: unknown_total,
            });
            sort_by_metric(
                &mut rows,
                |r| r.samples[sort_col],
                |a, b| a.name.cmp(&b.name),
            );
        }
        out.extend(rows);
        out
    }

    /// Render Figure 6. Only the backtracked memory counters carry
    /// data-object information, so (as in the paper) only those
    /// columns appear.
    pub fn render_data_objects(&self, sort_col: usize) -> String {
        let rows = self.data_objects(sort_col);
        let data_cols = self.data_columns();
        let totals = rows.first().map(|t| t.samples.clone()).unwrap_or_default();
        let mut out = String::new();
        let headers: Vec<String> = data_cols
            .iter()
            .map(|&i| format!("Data. {}", self.columns[i].title))
            .collect();
        writeln!(out, "{}   Name", headers.join(" | ")).unwrap();
        for r in rows {
            let cells: Vec<String> = data_cols
                .iter()
                .map(|&i| {
                    fmt_val_pct(
                        &self.columns[i],
                        r.samples[i],
                        totals.get(i).copied().unwrap_or(0),
                    )
                })
                .collect();
            writeln!(out, "{}   {}", cells.join("  "), r.name).unwrap();
        }
        out
    }

    /// Figure 7: expand one structure into per-member rows (all
    /// members in layout order, referenced or not).
    pub fn expand_struct(&self, struct_name: &str) -> Option<StructExpansion> {
        let sinfo = self.syms.struct_by_name(struct_name)?;
        let data_cols = self.data_columns();
        let ncols = self.columns.len();

        // One kernel pass keyed by member name; the whole-struct
        // total is the elementwise sum of the member rows.
        let mut by_member: HashMap<String, Vec<u64>> = self.kernel(&ByMemberName::new(
            &self.batch,
            &data_cols,
            ncols,
            struct_name,
        ));
        let mut total = vec![0u64; ncols];
        for samples in by_member.values() {
            for (t, x) in total.iter_mut().zip(samples) {
                *t += x;
            }
        }

        let members = sinfo
            .fields
            .iter()
            .map(|f| {
                let samples = by_member.remove(&f.name).unwrap_or_else(|| vec![0; ncols]);
                (
                    f.offset,
                    format!("+{} {{{} {}}}", f.offset, f.type_desc, f.name),
                    samples,
                )
            })
            .collect();
        Some(StructExpansion {
            struct_name: struct_name.to_string(),
            total,
            members,
            struct_size: sinfo.size,
        })
    }

    /// Render Figure 7 (data columns only, like Figure 6).
    pub fn render_struct_expansion(&self, struct_name: &str) -> Option<String> {
        let exp = self.expand_struct(struct_name)?;
        let data_cols = self.data_columns();
        let mut out = String::new();
        writeln!(
            out,
            "Data-object {{structure:{} -}} ({} bytes)",
            exp.struct_name, exp.struct_size
        )
        .unwrap();
        let data_total = exp.total.clone();
        let render_row = |samples: &[u64]| -> String {
            data_cols
                .iter()
                .map(|&i| fmt_val_pct(&self.columns[i], samples[i], data_total[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(
            out,
            "{}   {{structure:{} -}}",
            render_row(&exp.total),
            exp.struct_name
        )
        .unwrap();
        for (_, name, samples) in &exp.members {
            writeln!(out, "{}   {}", render_row(samples), name).unwrap();
        }
        Some(out)
    }

    /// §3.2.5: the effectiveness of the apropos backtracking per data
    /// column.
    pub fn effectiveness(&self) -> Vec<EffectivenessRow> {
        self.data_columns()
            .into_iter()
            .map(|col| {
                let b = &self.batch;
                let mut total = 0u64;
                let mut unresolvable = 0u64;
                let mut unascertainable = 0u64;
                for i in 0..b.len() {
                    if b.col[i] as usize != col {
                        continue;
                    }
                    total += 1;
                    match b.tag[i] {
                        AttrTag::UnkUnresolvable => unresolvable += 1,
                        AttrTag::UnkUnascertainable => unascertainable += 1,
                        _ => {}
                    }
                }
                let eff = if total == 0 {
                    100.0
                } else {
                    100.0 * (total - unresolvable - unascertainable) as f64 / total as f64
                };
                EffectivenessRow {
                    column: col,
                    title: self.columns[col].title.clone(),
                    total,
                    unresolvable,
                    unascertainable,
                    effectiveness_pct: eff,
                }
            })
            .collect()
    }
}
