//! Regression pin for the one budget-cut ILP search on a real instance.
//!
//! b15's selection ILP under the paper configuration
//! (`rtlock_config("b15", _)` exactly as returned, which runs without the
//! SAT probe) uses up the solver's node budget, so the cases it selects
//! depend on every node the branch-and-bound visits, in order. A search
//! that drifts by a single node picks other cases and fails this test.
//!
//! The database is committed as a fixture so the test runs the selection
//! alone: `fixtures/b15_database.txt` is `Database::to_text()` of
//! `build_database(&module, &candidates, &fsms, &config.database)` for that
//! configuration.

use rtlock::candidates::enumerate;
use rtlock::database::Database;
use rtlock::select::{select_ilp_bounded, SelectOutcome};
use rtlock_governor::CancelToken;

const DATABASE: &str = include_str!("fixtures/b15_database.txt");

#[test]
fn b15_budget_cut_selection_is_pinned() {
    let db = Database::from_text(DATABASE).expect("fixture parses");
    assert_eq!(db.to_text(), DATABASE, "the text codec round-trips the fixture exactly");

    let config = rtlock_bench::rtlock_config("b15", true);
    assert!(!config.database.sat_probe, "the fixture was built with the SAT probe off");
    let module = rtlock_designs::by_name("b15").expect("catalog design").module().expect("b15 parses");
    let (candidates, _) = enumerate(&module, &config.enumeration);
    assert_eq!(db.cases.len(), candidates.len(), "one row per candidate");
    for (row, cand) in db.cases.iter().zip(&candidates) {
        assert_eq!(row.label, cand.label(), "row {} describes its candidate", row.candidate_index);
    }

    assert_eq!(
        select_ilp_bounded(&db, &candidates, &config.spec, &CancelToken::unlimited()),
        SelectOutcome::Selected(vec![7, 11, 29, 33, 64, 65])
    );
}
