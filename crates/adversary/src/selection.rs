//! Choosing which processors an adversary corrupts.

use serde::json::{JsonError, Value as Json};
use serde::{FromJson, ToJson};
use sg_sim::{ProcessId, ProcessSet};

/// A policy for picking the corrupted set.
///
/// # Examples
///
/// ```
/// use sg_adversary::FaultSelection;
/// use sg_sim::ProcessId;
///
/// // Corrupt the source plus the lowest non-source ids, up to t.
/// let sel = FaultSelection::with_source();
/// let set = sel.select(7, 2, ProcessId(0));
/// assert!(set.contains(ProcessId(0)));
/// assert_eq!(set.len(), 2);
///
/// // Corrupt t non-source processors.
/// let sel = FaultSelection::without_source();
/// let set = sel.select(7, 2, ProcessId(0));
/// assert!(!set.contains(ProcessId(0)));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultSelection {
    include_source: bool,
    count: Option<usize>,
    explicit: Option<Vec<ProcessId>>,
}

impl FaultSelection {
    /// Corrupts the source and then the lowest non-source ids, `t` in
    /// total (or fewer if limited by [`FaultSelection::limit`]).
    pub fn with_source() -> Self {
        FaultSelection {
            include_source: true,
            count: None,
            explicit: None,
        }
    }

    /// Corrupts the lowest non-source ids, `t` in total.
    pub const fn without_source() -> Self {
        FaultSelection {
            include_source: false,
            count: None,
            explicit: None,
        }
    }

    /// Corrupts exactly the given processors.
    pub fn explicit<I: IntoIterator<Item = ProcessId>>(members: I) -> Self {
        FaultSelection {
            include_source: false,
            count: None,
            explicit: Some(members.into_iter().collect()),
        }
    }

    /// Caps the number of corrupted processors at `count` (default: the
    /// protocol's fault bound `t`).
    pub const fn limit(mut self, count: usize) -> Self {
        self.count = Some(count);
        self
    }

    /// Whether this selection corrupts the source.
    pub fn corrupts_source(&self, source: ProcessId) -> bool {
        match &self.explicit {
            Some(list) => list.contains(&source),
            None => self.include_source,
        }
    }

    /// Whether every processor the selection names outright is one of
    /// `0..n`: an explicit member list's are, or [`FaultSelection::select`]
    /// would panic; the rank-picking selections name none.
    pub(crate) fn fits(&self, n: usize) -> bool {
        self.explicit
            .as_ref()
            .is_none_or(|list| list.iter().all(|p| p.index() < n))
    }

    /// Materializes the corrupted set for a system of `n` processors with
    /// fault bound `t`.
    pub fn select(&self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        if let Some(list) = &self.explicit {
            return ProcessSet::from_members(n, list.iter().copied());
        }
        let budget = self.count.unwrap_or(t).min(t).min(n);
        let mut set = ProcessSet::new(n);
        if self.include_source && budget > 0 {
            set.insert(source);
        }
        let mut idx = 0usize;
        while set.len() < budget && idx < n {
            let p = ProcessId(idx);
            if p != source {
                set.insert(p);
            }
            idx += 1;
        }
        set
    }

    /// A short suffix describing the selection, used in adversary names.
    pub fn describe(&self) -> String {
        match &self.explicit {
            Some(list) => format!("explicit:{}", list.len()),
            None => {
                let src = if self.include_source { "+src" } else { "-src" };
                match self.count {
                    Some(c) => format!("{src},f={c}"),
                    None => src.to_string(),
                }
            }
        }
    }
}

impl ToJson for FaultSelection {
    /// Wire form (`sg-serve/1`): `{"include_source":bool}` with optional
    /// `"limit":k` and `"explicit":[ids…]` fields; an explicit member
    /// list overrides the other two on decode, mirroring
    /// [`FaultSelection::select`].
    fn to_json(&self) -> Json {
        let mut fields = vec![(
            "include_source".to_string(),
            Json::Bool(self.include_source),
        )];
        if let Some(count) = self.count {
            fields.push(("limit".to_string(), Json::from(count)));
        }
        if let Some(list) = &self.explicit {
            fields.push((
                "explicit".to_string(),
                Json::Arr(list.iter().map(|p| Json::from(p.0)).collect()),
            ));
        }
        Json::Obj(fields)
    }
}

impl FromJson for FaultSelection {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let include_source = v
            .need("include_source")?
            .as_bool()
            .ok_or_else(|| JsonError::msg("include_source must be a boolean"))?;
        let count = match v.get("limit") {
            None => None,
            Some(limit) => Some(
                limit
                    .as_usize()
                    .ok_or_else(|| JsonError::msg("limit must be a non-negative integer"))?,
            ),
        };
        let explicit = match v.get("explicit") {
            None => None,
            Some(list) => {
                let items = list
                    .as_arr()
                    .ok_or_else(|| JsonError::msg("explicit must be an array of processor ids"))?;
                Some(
                    items
                        .iter()
                        .map(|item| {
                            item.as_usize().map(ProcessId).ok_or_else(|| {
                                JsonError::msg("explicit members must be non-negative integers")
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
        };
        Ok(FaultSelection {
            include_source,
            count,
            explicit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_source_fills_lowest_ids() {
        let set = FaultSelection::with_source().select(7, 3, ProcessId(2));
        let got: Vec<usize> = set.iter().map(|p| p.index()).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn without_source_skips_source() {
        let set = FaultSelection::without_source().select(7, 3, ProcessId(1));
        let got: Vec<usize> = set.iter().map(|p| p.index()).collect();
        assert_eq!(got, vec![0, 2, 3]);
    }

    #[test]
    fn limit_caps_below_t() {
        let set = FaultSelection::without_source()
            .limit(1)
            .select(7, 3, ProcessId(0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn limit_never_exceeds_t() {
        let set = FaultSelection::without_source()
            .limit(9)
            .select(7, 2, ProcessId(0));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn explicit_is_verbatim() {
        let set = FaultSelection::explicit([ProcessId(4), ProcessId(6)]).select(8, 1, ProcessId(0));
        assert_eq!(set.len(), 2);
        assert!(set.contains(ProcessId(4)));
        assert!(set.contains(ProcessId(6)));
    }

    #[test]
    fn json_round_trips_every_shape() {
        for sel in [
            FaultSelection::with_source(),
            FaultSelection::without_source(),
            FaultSelection::with_source().limit(2),
            FaultSelection::explicit([ProcessId(4), ProcessId(6)]),
        ] {
            let encoded = sel.to_json().to_string();
            let decoded = FaultSelection::from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, sel, "through {encoded}");
        }
        assert!(FaultSelection::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(
            FaultSelection::from_json(&Json::parse("{\"include_source\":3}").unwrap()).is_err()
        );
    }
}
