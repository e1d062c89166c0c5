"""Process-free wave oracle for the pipelined :class:`ClusterRouter`.

A pipelined router decides each submitted batch as one *wave*: early
releases first, then admission rounds, then the releases of calls the
batch itself admitted.  In a round every undecided call tries its current
candidate path at once: one command per shard the path touches, each
checked and booked atomically by that shard in the order the router sent
them.  A call is admitted when every touched shard booked it; otherwise
the shards that did book keep the circuits until the round ends (the
aborts ride the next frame), and the call cranks back to its next
candidate in the next round.

:func:`pipelined_reference` replays that protocol with one occupancy list
and no processes, so the router's decisions and its fast-path, two-phase
and crankback counters can be checked exactly.  It reads only the route
table, the link partition and the request stream; nothing from
``repro.serve.cluster``.
"""

from __future__ import annotations

from repro.routing.table import RouteTable, choice_index
from repro.serve.engine import Decision, ReleaseRequest
from repro.serve.loadgen import trace_requests
from repro.serve.state import partition_links

__all__ = ["pipelined_reference"]


def pipelined_reference(network, policy, trace, num_shards, batch_size):
    """Decisions and ``{fastpath, twophase, crankbacks}`` counts of a
    fault-free pipelined cluster replaying ``trace`` in ``batch_size``
    batches over ``num_shards`` shards."""
    table = RouteTable(policy)
    shard_of = {
        link: sid
        for sid, links in enumerate(partition_links(network.num_links, num_shards))
        for link in links
    }
    occupancy = [0] * network.num_links
    held: dict = {}
    counts = {"fastpath": 0, "twophase": 0, "crankbacks": 0}

    def candidates(od, uniform):
        """``[(path, per-link bounds, tier, shard groups)]``, or None."""
        chains, cum = table.choices(od)
        if not chains:
            return None
        primary, alternates = chains[choice_index(cum, uniform)]
        chain = [(primary, table.capacities, "primary")]
        chain += [(alt, bounds, "alternate") for alt, bounds in alternates]
        out = []
        for path, bounds, tier in chain:
            groups: dict[int, list[int]] = {}
            for link in path:
                groups.setdefault(shard_of[link], []).append(link)
            out.append((path, bounds, tier, [groups[s] for s in sorted(groups)]))
        return out

    def release(request):
        entry = held.pop(request.id, None)
        if entry is None:
            return Decision(request.id, False, None, "release", "unknown-call")
        path, width = entry
        for link in path:
            occupancy[link] -= width
        return Decision(request.id, True, path, "release", None)

    requests = trace_requests(trace)
    decisions: list[Decision] = []
    for start in range(0, len(requests), batch_size):
        batch = requests[start:start + batch_size]
        out: list[Decision | None] = [None] * len(batch)
        admit_ids = set()
        late = []
        # Undecided calls: [position in batch, request, chain, candidate].
        active = []
        for i, request in enumerate(batch):
            if type(request) is ReleaseRequest:
                if request.id in admit_ids:
                    late.append(i)
                else:
                    out[i] = release(request)
                continue
            admit_ids.add(request.id)
            chain = candidates(request.od, request.uniform)
            if chain is None:
                out[i] = Decision(request.id, False, None, "none", "no-route")
            else:
                active.append([i, request, chain, 0])
        while active:
            attempts = []
            for item in active:
                i, request, chain, k = item
                if k == len(chain):
                    out[i] = Decision(request.id, False, None, "none", "blocked")
                    continue
                __, bounds, ___, groups = chain[k]
                counts["fastpath" if len(groups) == 1 else "twophase"] += 1
                width = request.width
                booked = []
                for links in groups:
                    if all(occupancy[link] + width <= bounds[link] for link in links):
                        for link in links:
                            occupancy[link] += width
                        booked.append(links)
                attempts.append((item, booked, len(booked) == len(groups)))
            active = []
            for item, booked, admitted in attempts:
                i, request, chain, k = item
                path, __, tier, ___ = chain[k]
                if admitted:
                    held[request.id] = (path, request.width)
                    out[i] = Decision(request.id, True, path, tier, None)
                    continue
                for links in booked:
                    for link in links:
                        occupancy[link] -= request.width
                counts["crankbacks"] += 1
                item[3] += 1
                active.append(item)
        for i in late:
            out[i] = release(batch[i])
        decisions.extend(out)
    return decisions, counts
