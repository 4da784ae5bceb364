"""Per-host token-bucket politeness + robots cache (T3).

The reference's politeness is a fixed 0.3 s sleep between listing pages and
implicit caps via thread-pool sizes (cninfo_report_crawler.py:331, :479,
report_info_collection.py:633) — none of which survives horizontal scaling.
Here the budget is explicit per-host token buckets held in an actor.

Determinism (SURVEY.md §7, "politeness vs determinism"): grants are a pure
function of (request sequence, budget, tick), never wall-clock — tests drive
a virtual tick; production advances ticks from real time. Crawl ORDER never
depends on grant timing because admission order is fixed by the canonical
order key; politeness only spaces requests out.
"""

from __future__ import annotations


class HostBucket:
    __slots__ = ("tokens", "rate_per_tick", "burst", "last_tick")

    def __init__(self, rate_per_tick: float, burst: float):
        self.tokens = burst
        self.rate_per_tick = rate_per_tick
        self.burst = burst
        self.last_tick = 0


class PolitenessGate:
    """Plain class (wrapped by ray.remote for the actor pool). One instance
    governs all hosts; shard by host-hash across a pool if host cardinality
    is large."""

    def __init__(self, rate_per_second: float = 1000.0, burst: int = 2000,
                 ticks_per_second: int = 10):
        self.tps = ticks_per_second
        self.default_rate = rate_per_second / ticks_per_second
        self.default_burst = float(burst)
        self.buckets: dict[str, HostBucket] = {}
        self.overrides: dict[str, tuple[float, float]] = {}
        self.robots: dict[str, list[str]] = {}  # host → disallowed path prefixes
        self.now_tick = 0

    # --- config ---
    def set_host_rate(self, host: str, rate_per_second: float, burst: int) -> None:
        self.overrides[host] = (rate_per_second / self.tps, float(burst))
        self.buckets.pop(host, None)

    def set_robots(self, host: str, disallow_prefixes: list[str]) -> None:
        """Robots cache: in production this would be fetched+parsed once per
        host and TTL-refreshed; in the sandbox rules are injected."""
        self.robots[host] = list(disallow_prefixes)

    def load_robots_txt(self, host: str, text: str,
                        agent: str = "cninfo-crawler") -> None:
        """Parse a robots.txt body into the host's disallow cache — the
        fetch-side of the robots flow (set_robots injects pre-parsed rules).
        Standard grammar subset: User-agent groups, Disallow/Allow path
        prefixes, '*' agent, comments; the most specific matching agent
        group wins (exact name > '*'), like urllib.robotparser. Crawl-delay,
        if present in the winning group, overrides the host's token rate."""
        groups: list[tuple[list[str], list[str], float | None]] = []
        cur_agents: list[str] = []
        cur_dis: list[str] = []
        cur_delay: float | None = None
        in_group_body = False

        def flush():
            nonlocal cur_agents, cur_dis, cur_delay, in_group_body
            if cur_agents:
                groups.append((cur_agents, cur_dis, cur_delay))
            cur_agents, cur_dis, cur_delay = [], [], None
            in_group_body = False

        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "user-agent":
                if in_group_body:
                    flush()
                cur_agents.append(val.lower())
            elif key == "disallow":
                in_group_body = True
                if val:
                    cur_dis.append(val)
            elif key == "allow":
                in_group_body = True  # recognized; prefix-allow not modeled
            elif key == "crawl-delay":
                in_group_body = True
                try:
                    cur_delay = float(val)
                except ValueError:
                    pass
        flush()
        agent = agent.lower()
        chosen = None
        for agents, dis, delay in groups:
            if any(a != "*" and a in agent for a in agents):
                chosen = (dis, delay)
                break
        if chosen is None:
            for agents, dis, delay in groups:
                if "*" in agents:
                    chosen = (dis, delay)
                    break
        if chosen is None:
            self.robots[host] = []
            return
        dis, delay = chosen
        self.robots[host] = list(dis)
        if delay and delay > 0:
            # crawl-delay seconds → token rate 1/delay req/s (burst 1)
            self.set_host_rate(host, 1.0 / delay, 1)

    # --- time ---
    def advance(self, ticks: int) -> int:
        self.now_tick += int(ticks)
        return self.now_tick

    def _bucket(self, host: str) -> HostBucket:
        b = self.buckets.get(host)
        if b is None:
            rate, burst = self.overrides.get(host, (self.default_rate, self.default_burst))
            b = self.buckets[host] = HostBucket(rate, burst)
        return b

    # --- grants ---
    def acquire(self, host: str, n: int) -> int:
        """Grant up to n request tokens for host at the current tick; returns
        the number granted (callers requeue the remainder)."""
        b = self._bucket(host)
        if self.now_tick > b.last_tick:
            b.tokens = min(b.burst, b.tokens + (self.now_tick - b.last_tick) * b.rate_per_tick)
            b.last_tick = self.now_tick
        granted = int(min(n, b.tokens))
        b.tokens -= granted
        return granted

    def acquire_batch(self, hosts: list[str], counts: list[int]) -> list[int]:
        """One RPC per map_batches batch: grouped grants per host."""
        return [self.acquire(h, c) for h, c in zip(hosts, counts)]

    def allowed(self, host: str, paths: list[str]) -> list[bool]:
        dis = self.robots.get(host, [])
        return [not any(p.startswith(d) for d in dis) for p in paths]

    # --- checkpoint ---
    def snapshot(self) -> bytes:
        import pickle

        return pickle.dumps((
            self.tps, self.default_rate, self.default_burst, self.overrides,
            self.robots, self.now_tick,
            {h: (b.tokens, b.rate_per_tick, b.burst, b.last_tick)
             for h, b in self.buckets.items()},
        ))

    def restore(self, blob: bytes) -> None:
        import pickle

        (self.tps, self.default_rate, self.default_burst, self.overrides,
         self.robots, self.now_tick, buckets) = pickle.loads(blob)
        self.buckets = {}
        for h, (tokens, rate, burst, last) in buckets.items():
            b = HostBucket(rate, burst)
            b.tokens, b.last_tick = tokens, last
            self.buckets[h] = b

    def wait_ticks_for(self, host: str, n: int) -> int:
        """Deterministic schedule helper: ticks until n tokens are available
        (0 if available now, -1 if NEVER — zero refill rate with an exhausted
        bucket). Pure — does not consume tokens."""
        b = self._bucket(host)
        tokens = min(b.burst, b.tokens + max(self.now_tick - b.last_tick, 0) * b.rate_per_tick)
        if tokens >= n:
            return 0
        if b.rate_per_tick <= 0:
            return -1
        need = n - tokens
        return int(-(-need // b.rate_per_tick))  # ceil

    def soonest_refill(self, hosts) -> int | None:
        """Ticks to advance the virtual clock so the first of ``hosts`` can
        be granted one request: the smallest non-negative
        ``wait_ticks_for(host, 1)``, at least 1 — the one clock-advance rule
        of the scheduler's empty waves and the batch path's grant replay.
        None when no host ever refills (zero rate, exhausted bucket)."""
        waits = [w for w in (self.wait_ticks_for(h, 1) for h in hosts) if w >= 0]
        return max(1, min(waits)) if waits else None
