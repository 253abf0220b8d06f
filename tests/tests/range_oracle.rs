//! Exact and range answers (paper §IV) against the reference model, an
//! ordered multiset of the stored keys: the range-oracle key set (seed
//! `0x0AC1E`, 500 keys plus every 7th again) is stored in every overlay,
//! along every build and load path, and each seeded range returns the
//! model's count, each exact query the key's multiplicity, each delete one
//! value — routed and through the overlay's snapshot.

use baton_tests::{answers_like_the_model, ordered_inputs, EVERY_PATH};

#[test]
fn range_and_exact_results_match_a_sorted_vector_oracle() {
    let covered = answers_like_the_model(&ordered_inputs(0x0AC1E, 500, 7, 11), &EVERY_PATH);
    let ordered = covered.ordered;
    assert_eq!(ordered.len(), 3, "range-capable overlays: {ordered:?}");
}
