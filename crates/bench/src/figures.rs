//! Regeneration of every figure and table in the paper.
//!
//! Each function drives the *full stack* (SQL → planner → algebra →
//! storage-backed engine) to reproduce one artifact of the paper, and
//! returns it as text. The unit tests pin the exact values the paper
//! prints; the `figures` binary renders them for EXPERIMENTS.md.

use exptime_core::aggregate::{neutral, AggFunc};
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use exptime_core::tuple;
use exptime_core::tuple::Tuple;
use exptime_engine::{Database, DbConfig, Removal};
use exptime_literal::ops;

fn t(v: u64) -> Time {
    Time::new(v)
}

/// Builds the paper's Figure 1 database through the SQL front end. The
/// engine is configured with lazy removal so that `figure`-time snapshots
/// can be taken at any τ without physically destroying rows first.
#[must_use]
pub fn figure1_database() -> Database {
    let mut db = Database::new(DbConfig {
        removal: Removal::Lazy {
            vacuum_every: u64::MAX,
        },
        ..DbConfig::default()
    });
    db.execute_script(
        "CREATE TABLE pol (uid INT, deg INT);
         CREATE TABLE el (uid INT, deg INT);
         INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
         INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
         INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
         INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
         INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
         INSERT INTO el VALUES (4, 90) EXPIRES AT 2;",
    )
    .expect("figure 1 script");
    db
}

/// Renders a relation in the paper's figure style: `texp  ⟨tuple⟩` lines,
/// sorted by tuple for determinism.
#[must_use]
pub fn render(rel: &Relation) -> String {
    let mut rows: Vec<(Tuple, Time)> = rel.iter().map(|(tp, e)| (tp.clone(), e)).collect();
    rows.sort_by(|(a, _), (b, _)| {
        a.values()
            .iter()
            .zip(b.values().iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if rows.is_empty() {
        return "    ∅ (the query is empty)\n".to_string();
    }
    let mut out = String::new();
    for (tp, e) in rows {
        // Pad the rendered time (Time's Display ignores width flags).
        out.push_str(&format!("  {:>3}  {tp}\n", e.to_string()));
    }
    out
}

fn query(db: &mut Database, sql: &str) -> Relation {
    db.execute(sql)
        .expect("figure query")
        .rows()
        .expect("is a query")
        .clone()
}

/// Figure 1: the example relations at time 0.
#[must_use]
pub fn fig1() -> String {
    let mut db = figure1_database();
    let pol = query(&mut db, "SELECT * FROM pol");
    let el = query(&mut db, "SELECT * FROM el");
    format!(
        "Figure 1. Example relations at time 0.\n\
         (a) Politics table Pol (texp, ⟨UID, Deg⟩):\n{}\
         (b) Elections table El (texp, ⟨UID, Deg⟩):\n{}",
        render(&pol),
        render(&el)
    )
}

/// Figure 2: monotonic expressions over time.
#[must_use]
pub fn fig2() -> String {
    let mut out = String::from("Figure 2. Example monotonic expressions.\n");
    // (a), (b): the base relations at time 0.
    let mut db = figure1_database();
    out.push_str("(a) Relation Pol at time 0:\n");
    out.push_str(&render(&query(&mut db, "SELECT * FROM pol")));
    out.push_str("(b) Relation El at time 0:\n");
    out.push_str(&render(&query(&mut db, "SELECT * FROM el")));

    // (c), (d): πexp_2(Pol) at times 0 and 10.
    let mut db = figure1_database();
    out.push_str("(c) πexp_2(Pol) at time 0:\n");
    out.push_str(&render(&query(&mut db, "SELECT deg FROM pol")));
    db.tick(10);
    out.push_str("(d) πexp_2(Pol) at time 10:\n");
    out.push_str(&render(&query(&mut db, "SELECT deg FROM pol")));

    // (e)-(g): Pol ⋈exp_{1=3} El at times 0, 3, 5.
    let join = "SELECT * FROM pol JOIN el ON pol.uid = el.uid";
    let mut db = figure1_database();
    out.push_str("(e) Pol ⋈exp_{1=3} El at time 0:\n");
    out.push_str(&render(&query(&mut db, join)));
    db.tick(3);
    out.push_str("(f) Pol ⋈exp_{1=3} El at time 3:\n");
    out.push_str(&render(&query(&mut db, join)));
    db.tick(2);
    out.push_str("(g) Pol ⋈exp_{1=3} El at time 5:\n");
    out.push_str(&render(&query(&mut db, join)));
    out
}

/// Figure 3: non-monotonic expressions — the histogram that goes invalid
/// at time 10, and the difference that *grows* under expiration.
#[must_use]
pub fn fig3() -> String {
    let mut out = String::from("Figure 3. Some non-monotonic expressions.\n");
    let mut db = figure1_database();
    out.push_str("(a) πexp_{2,3}(aggexp_{{2},count}(Pol)) at time 0:\n");
    out.push_str(&render(&query(
        &mut db,
        "SELECT deg, COUNT(*) FROM pol GROUP BY deg",
    )));
    out.push_str(
        "    (Under Eq. 8, ⟨25, 2⟩ expires at 10, but the recomputation at 10\n\
         \x20    contains ⟨25, 1⟩ — the materialised result is invalid from 10 on.)\n",
    );

    let diff = "SELECT uid FROM pol EXCEPT SELECT uid FROM el";
    let mut db = figure1_database();
    out.push_str("(b) πexp_1(Pol) −exp πexp_1(El) at time 0:\n");
    out.push_str(&render(&query(&mut db, diff)));
    db.tick(3);
    out.push_str("(c) πexp_1(Pol) −exp πexp_1(El) at time 3:\n");
    out.push_str(&render(&query(&mut db, diff)));
    db.tick(2);
    out.push_str("(d) πexp_1(Pol) −exp πexp_1(El) at time 5:\n");
    out.push_str(&render(&query(&mut db, diff)));
    out.push_str(
        "    (The difference grows monotonically before time 10 — the\n\
         \x20    materialised version from (b) is invalid from time 3 onwards.)\n",
    );
    out
}

/// Table 1: neutral subsets, exercised on a worked partition per aggregate
/// function.
#[must_use]
pub fn table1() -> String {
    let mut out = String::from(
        "Table 1. Neutral subsets, exercised per aggregate function.\n\
         Partition rows are (⟨id, value⟩, texp); each time slice is tested\n\
         against the Table 1 predicate.\n\n",
    );
    type Part = Vec<(Tuple, Time)>;
    let demo: Vec<(&str, AggFunc, Part)> = vec![
        (
            "min_2: values > min are neutral; min-achievers except the \
             longest-lived are neutral",
            AggFunc::Min(1),
            vec![
                (tuple![1, 10], t(8)),
                (tuple![2, 10], t(20)),
                (tuple![3, 30], t(5)),
            ],
        ),
        (
            "max_2: symmetric to min",
            AggFunc::Max(1),
            vec![
                (tuple![1, 50], t(8)),
                (tuple![2, 50], t(20)),
                (tuple![3, 30], t(5)),
            ],
        ),
        (
            "avg_2: a slice whose mean equals the partition mean is neutral",
            AggFunc::Avg(1),
            vec![
                (tuple![1, 10], t(4)),
                (tuple![2, 10], t(4)),
                (tuple![3, 5], t(9)),
                (tuple![4, 15], t(12)),
            ],
        ),
        (
            "sum_2: a slice summing to zero is neutral",
            AggFunc::Sum(1),
            vec![
                (tuple![1, 4], t(5)),
                (tuple![2, -4], t(5)),
                (tuple![3, 7], t(9)),
            ],
        ),
        (
            "count: only the empty set is neutral (Eq. 8 applies strictly)",
            AggFunc::Count,
            vec![(tuple![1, 1], t(5)), (tuple![2, 2], t(9))],
        ),
    ];
    for (desc, f, partition) in demo {
        out.push_str(&format!("{desc}\n"));
        let (slices, _) = neutral::time_slices(&partition);
        for (texp, slice) in &slices {
            let n = neutral::is_neutral(slice, &partition, f).expect("numeric demo");
            out.push_str(&format!(
                "  slice @texp={texp}: {{{}}} → {}\n",
                slice
                    .iter()
                    .map(|(tp, _)| tp.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                if n { "neutral" } else { "NOT neutral" }
            ));
        }
        let bound = neutral::contributing_texp(&partition, f).expect("numeric demo");
        let naive = Time::min_of(partition.iter().map(|(_, e)| *e)).expect("non-empty");
        out.push_str(&format!(
            "  ⇒ result-tuple texp: naive (Eq. 8) = {naive}, contributing-set = {bound}\n\n"
        ));
    }
    out
}

/// Table 2: the lifetime case analysis of `e = R −exp S`, exercised
/// tuple-by-tuple on a worked example.
#[must_use]
pub fn table2() -> String {
    let schema = exptime_core::schema::Schema::of(&[("k", exptime_core::value::ValueType::Int)]);
    let r = Relation::from_rows(
        schema.clone(),
        vec![
            (tuple![1], t(10)), // case 1: only in R
            (tuple![2], t(10)), // case 3a: in both, texp_R > texp_S
            (tuple![3], t(4)),  // case 3b: in both, texp_R ≤ texp_S
        ],
    )
    .unwrap();
    let s = Relation::from_rows(
        schema,
        vec![
            (tuple![2], t(6)),
            (tuple![3], t(9)),
            (tuple![4], t(7)), // case 2: only in S
        ],
    )
    .unwrap();
    let mut out = String::from(
        "Table 2. Lifetime analysis of e = R −exp S (worked example).\n\
         R = {⟨1⟩@10, ⟨2⟩@10, ⟨3⟩@4},  S = {⟨2⟩@6, ⟨3⟩@9, ⟨4⟩@7}\n\n\
         condition                     texp_*(t)   contribution to texp(e)\n",
    );
    let all: Vec<(Tuple, &str, String, String)> = vec![
        (
            tuple![1],
            "(1) t ∈ R ∧ t ∉ S",
            "texp_R = 10".into(),
            "∞".into(),
        ),
        (tuple![4], "(2) t ∉ R ∧ t ∈ S", "n.a.".into(), "∞".into()),
        (
            tuple![2],
            "(3a) both, texp_R > texp_S",
            "n.a.".into(),
            "texp_S = 6".into(),
        ),
        (
            tuple![3],
            "(3b) both, texp_R ≤ texp_S",
            "n.a.".into(),
            "∞".into(),
        ),
    ];
    for (tp, cond, texp_t, contrib) in all {
        out.push_str(&format!(
            "{cond:<30}{texp_t:<12}{contrib:<12}  (t = {tp})\n"
        ));
    }
    let meta = ops::difference_meta(&r, &s, Time::ZERO);
    let crit = ops::critical_tuples(&r, &s, Time::ZERO);
    out.push_str(&format!(
        "\nMeasured: critical tuples = {{{}}}, texp(e) = {} (case 3a minimum), \
         validity = {}\n",
        crit.iter()
            .map(|c| format!("{}@[{}, {}[", c.tuple, c.appears_at, c.disappears_at))
            .collect::<Vec<_>>()
            .join(", "),
        meta.texp,
        meta.validity,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper_values() {
        let s = fig1();
        for needle in [
            "10  ⟨1, 25⟩",
            "15  ⟨2, 25⟩",
            "10  ⟨3, 35⟩",
            "5  ⟨1, 75⟩",
            "3  ⟨2, 85⟩",
            "2  ⟨4, 90⟩",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }

    #[test]
    fn fig2_matches_paper_values() {
        let s = fig2();
        // (c): projection with max texp of duplicates.
        assert!(
            s.contains("(c) πexp_2(Pol) at time 0:\n   15  ⟨25⟩\n   10  ⟨35⟩"),
            "{s}"
        );
        // (d): only ⟨25⟩ at time 10.
        assert!(
            s.contains("(d) πexp_2(Pol) at time 10:\n   15  ⟨25⟩\n(e)"),
            "{s}"
        );
        // (e): join tuples with min texp.
        assert!(s.contains("5  ⟨1, 25, 1, 75⟩"), "{s}");
        assert!(s.contains("3  ⟨2, 25, 2, 85⟩"), "{s}");
        // (f): only the first survives at 3.
        let f_section = s.split("(f)").nth(1).unwrap();
        assert!(f_section.contains("⟨1, 25, 1, 75⟩"));
        assert!(!f_section.split("(g)").next().unwrap().contains("⟨2, 25"));
        // (g): empty at 5.
        assert!(s.split("(g)").nth(1).unwrap().contains('∅'), "{s}");
    }

    #[test]
    fn fig3_matches_paper_values() {
        let s = fig3();
        // (a): histogram ⟨25,2⟩, ⟨35,1⟩.
        let a = s.split("(b)").next().unwrap();
        assert!(a.contains("⟨25, 2⟩"), "{s}");
        assert!(a.contains("⟨35, 1⟩"), "{s}");
        // (b): only ⟨3⟩ at time 0.
        let b = s.split("(b)").nth(1).unwrap().split("(c)").next().unwrap();
        assert!(b.contains("⟨3⟩") && !b.contains("⟨2⟩"), "{s}");
        // (c): ⟨2⟩, ⟨3⟩ at time 3.
        let c = s.split("(c)").nth(1).unwrap().split("(d)").next().unwrap();
        assert!(
            c.contains("⟨2⟩") && c.contains("⟨3⟩") && !c.contains("⟨1⟩"),
            "{s}"
        );
        // (d): ⟨1⟩, ⟨2⟩, ⟨3⟩ at time 5 — grown monotonically.
        let d = s.split("(d)").nth(1).unwrap();
        assert!(
            d.contains("⟨1⟩") && d.contains("⟨2⟩") && d.contains("⟨3⟩"),
            "{s}"
        );
    }

    #[test]
    fn table1_shows_extension_over_naive() {
        let s = table1();
        // min demo: naive 5, contributing 20.
        assert!(
            s.contains("naive (Eq. 8) = 5, contributing-set = 20"),
            "{s}"
        );
        // sum demo: zero-slice neutral, bound 9.
        assert!(s.contains("naive (Eq. 8) = 5, contributing-set = 9"), "{s}");
        // count: bounds coincide.
        assert!(s.contains("naive (Eq. 8) = 5, contributing-set = 5"), "{s}");
        assert!(s.contains("NOT neutral"));
    }

    #[test]
    fn table2_case_analysis() {
        let s = table2();
        assert!(s.contains("texp(e) = 6"), "{s}");
        assert!(s.contains("⟨2⟩@[6, 10["), "{s}");
        assert!(s.contains("(3a)"));
        assert!(s.contains("[0, 6[ ∪ [10, ∞["), "exact validity: {s}");
    }
}
