//! Quickstart: build a BATON overlay, index data, run exact and range
//! queries, and watch a node join and leave.
//!
//! ```text
//! cargo run -p baton-examples --example quickstart
//! ```

use baton_core::{validate, BatonConfig, BatonSystem, KeyRange, Overlay};

fn main() {
    // 1. Build an overlay of 100 peers: one bootstrap node plus 99 joins
    //    through random contacts, exactly how the paper grows its networks.
    let mut overlay =
        BatonSystem::build(BatonConfig::default(), 42, 100).expect("build the overlay");
    println!(
        "built a BATON overlay: {} nodes, tree height {} (1.44·log2 N = {:.1})",
        overlay.node_count(),
        overlay.height(),
        1.44 * (overlay.node_count() as f64).log2()
    );

    // 2. Index some data: every node owns a contiguous key range, so the
    //    overlay behaves like a distributed B-tree.
    for i in 0..1_000u64 {
        let key = 1 + i * 999_983 % 999_999_999;
        overlay.insert(key, i).expect("insert");
    }
    println!("inserted 1000 values across {} nodes", overlay.node_count());

    // 3. Exact-match query from a random peer: O(log N) messages.
    let key = 1 + (500 * 999_983);
    let hit = overlay.search_exact(key).expect("exact query");
    println!(
        "exact query for key {key}: {} match(es), {} messages, {} hops",
        hit.matches.len(),
        hit.messages,
        hit.hops
    );

    // 4. Range query — the reason BATON exists: DHTs cannot do this.
    let range = KeyRange::new(100_000_000, 200_000_000);
    let scan = overlay.search_range(range).expect("range query");
    println!(
        "range query {range}: {} matches from {} nodes, {} messages",
        scan.matches.len(),
        scan.nodes_visited,
        scan.messages
    );

    // 5. Churn: a peer joins and another leaves; both cost O(log N)
    //    messages and the tree stays balanced.
    let join = overlay.join_random().expect("join");
    println!(
        "peer {} joined under {} at {:?}: {} locate + {} update messages",
        join.new_peer, join.parent, join.position, join.locate_messages, join.update_messages
    );
    let leave = overlay.leave_random().expect("leave");
    println!(
        "peer {} left (replacement: {:?}): {} locate + {} update messages",
        leave.departed, leave.replacement, leave.locate_messages, leave.update_messages
    );

    // 6. The whole structure is still a valid balanced BATON tree.
    validate(&overlay).expect("the overlay keeps every invariant");
    println!("all structural invariants hold — done.");
}
