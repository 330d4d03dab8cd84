"""Write reference.json: the objective of every job any workload seed can draw.

    python3 perfbench/make_reference.py

Run once, on the commit that introduced the benchmark; later commits are
measured against the objectives it wrote.  Every job is solved twice, to
check that its objective is deterministic (half a minute on one core).
"""

import json

import jobs


def main():
    reference = {}
    for workload, strata in jobs.WORKLOADS.items():
        pairs = [(stratum, seed) for stratum in strata for seed in stratum.pool]
        built, problems = jobs.make_jobs(pairs)
        if problems:
            raise SystemExit("; ".join(problems))
        for job in built:
            out = jobs.run_job(job)
            problems = jobs.check(job, out, {job.key: out.objective})
            if jobs.run_job(job).objective != out.objective:
                problems.append("objective is not deterministic")
            if problems:
                raise SystemExit(f"{job.key}: {problems}")
            reference[job.key] = out.objective
        print(f"{workload}: {len(reference)} references so far", flush=True)
    with open(jobs.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
