"""The cli workload: one fresh ``python -m scqsim`` per command, as at a shell.

``commands(seed, workdir)`` writes each command's INI config (parameters
drawn from ``seed``), computes its reference and returns ``Command``
records; ``Command.check`` parses the CSV the command wrote.  Configs are
the README reference configs where the README gives one, else the
acceptance-criterion inputs, shortened so one pass stays near 30 s.

Two commands run only in the traced run (``traced_only``): the flux3
sweep at ``--threads 2``, whose wall time swings between 5 and 25 s from
BLAS oversubscription, and the ``[precision]`` sweep, 47-51 s and 2.1 GB
on its own; timing them in every run would break the run budget and the
steadiness of ``wall_s``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as ref
from workloads import check, check_close


@dataclass
class Command:
    label: str
    args: list  # after "python -m scqsim"
    check: Callable[[str], None]  # called with the output CSV path
    out: str
    traced_only: bool = False


def read_csv(path: str):
    """(comment key -> value, header, float rows) of an scqsim CSV."""
    comments, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition(" = ")
                if sep:
                    comments[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def _numbers(rows, first=0):
    return np.array([[float(x) for x in row[first:]] for row in rows])


def commands(seed: int, workdir: str) -> list[Command]:
    rng = np.random.default_rng([seed, 4])
    cmds: list[Command] = []

    def add(label, command, config, check_fn, *extra, traced_only=False):
        path = os.path.join(workdir, f"{label}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        out = os.path.join(workdir, f"{label}.csv")
        cmds.append(Command(label, [command, "--config", path, "--out", out, *extra], check_fn, out, traced_only))

    def same_bytes(serial_label):
        def compare(path):
            with open(path, "rb") as a, open(os.path.join(workdir, f"{serial_label}.csv"), "rb") as b:
                check(a.read() == b.read(), f"--threads 2 CSV differs from {serial_label}")

        return compare

    # spectrum on the Cooper-pair box: the README config, 101 ng points
    ec, ej = rng.uniform(4.8, 5.2), rng.uniform(0.8, 1.2)
    ng = np.linspace(0.0, 1.0, 101)
    cpb_ref = np.array([ref.cpb_levels(ec, ej, x, 20, 5) for x in ng])

    def cpb_check(path):
        _, _, rows = read_csv(path)
        data = _numbers(rows)
        check_close("cpb ng column", data[:, 0], ng, atol=1e-14)
        check_close("cpb levels vs cutoff-20 reference", data[:, 1:], cpb_ref, atol=1e-9)

    cpb_cfg = (f"[run]\nseed = 42\n[cpb]\nec = {ec!r}\nej = {ej!r}\ncutoff = 10\n"
               "[sweep]\nparameter = ng\nstart = 0.0\nstop = 1.0\npoints = 101\nlevels = 5\n")
    add("spectrum_cpb", "spectrum", cpb_cfg, cpb_check)
    add("spectrum_cpb_threads2", "spectrum", cpb_cfg, same_bytes("spectrum_cpb"), "--threads", "2")

    # spectrum on the three-junction qubit, serial and pooled (criterion-3 circuit)
    fj, falpha = rng.uniform(36.0, 44.0), rng.uniform(0.75, 0.85)
    half = rng.uniform(0.005, 0.01)
    f_grid = np.linspace(0.5 - half, 0.5 + half, 4)
    flux_ref = np.array([ref.three_junction_levels(fj, 1.0, falpha, f) for f in f_grid])
    flux_cfg = (f"[flux3]\nej = {fj!r}\nec = 1.0\nalpha = {falpha!r}\n"
                f"[sweep]\nparameter = f\nstart = {0.5 - half!r}\nstop = {0.5 + half!r}\npoints = 4\nlevels = {ref.FLUX_LEVELS}\n")

    def flux_check(path):
        _, _, rows = read_csv(path)
        check_close("flux3 levels vs charge basis", _numbers(rows)[:, 1:], flux_ref, atol=2e-4)

    add("spectrum_flux3_threads1", "spectrum", flux_cfg, flux_check, "--threads", "1")
    add("spectrum_flux3_threads2", "spectrum", flux_cfg, same_bytes("spectrum_flux3_threads1"),
        "--threads", "2", traced_only=True)

    # spectrum on flux3 with [precision] at the default grid_points = 48 (grid 96 check)
    pj, palpha = rng.uniform(36.0, 44.0), rng.uniform(0.75, 0.85)
    precision_ref = np.array([ref.three_junction_levels(pj, 1.0, palpha, f) for f in (0.49, 0.5, 0.51)])

    def precision_check(path):
        with open(path, encoding="utf-8") as fh:
            moved = re.search(r"^# grid verification: levels moved (\S+) GHz", fh.read(), re.M)
        check(moved is not None and float(moved.group(1)) <= 1e-3, "no passing grid verification record")
        _, _, rows = read_csv(path)
        check_close("precision levels vs charge basis", _numbers(rows)[:, 1:], precision_ref, atol=2e-4)

    add("spectrum_flux3_precision", "spectrum",
        f"[flux3]\nej = {pj!r}\nec = 1.0\nalpha = {palpha!r}\n"
        f"[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 3\nlevels = {ref.FLUX_LEVELS}\n"
        "[precision]\nverify_grid_tol = 1e-3\n", precision_check, traced_only=True)

    # evolve: reduced two-level CPB from |0>
    eec, eej, eng = rng.uniform(4.8, 5.2), rng.uniform(0.8, 1.2), rng.uniform(0.45, 0.55)
    evolve_t = np.linspace(0.0, 5.0, 51)
    evolve_ref = ref.two_level_excited_population(eec, eej, eng, evolve_t)

    def evolve_check(path):
        _, _, rows = read_csv(path)
        check_close("evolve p1 vs closed form", _numbers(rows)[:, 1], evolve_ref, atol=1e-9)

    add("evolve", "evolve",
        f"[cpb]\nec = {eec!r}\nej = {eej!r}\nng = {eng!r}\n[time]\nstop = 5.0\npoints = 51\n", evolve_check)

    # rabi: resonant, closed (criterion 7 qubit), 12k RK4 steps
    nu01, amp = rng.uniform(9.5, 10.5), rng.uniform(0.18, 0.22)
    rabi_t = np.linspace(0.0, 30.0 / nu01, 31)

    def rabi_check(path):
        _, _, rows = read_csv(path)
        check_close("rabi vs sin^2(pi A t)", _numbers(rows)[:, 1], np.sin(math.pi * amp * rabi_t) ** 2, atol=1e-3)

    add("rabi", "rabi",
        f"[qubit]\nnu01 = {nu01!r}\n[pulse]\namplitude = {amp!r}\nfrequency = {nu01!r}\n"
        f"[time]\nstop = {30.0 / nu01!r}\npoints = 31\n", rabi_check)

    # ramsey and t1: criterion-6 fits
    t2_us = rng.uniform(0.9, 1.1)

    def ramsey_check(path):
        comments, _, _ = read_csv(path)
        check_close("ramsey fitted T2", float(comments["fitted_t2_us"]), t2_us, rtol=0.05)
        check_close("ramsey fitted detuning", float(comments["fitted_detuning_ghz"]), 0.002, rtol=0.01)

    add("ramsey", "ramsey",
        f"[qubit]\nnu01 = 10.0\ndetuning = 0.002\n[decoherence]\nt1_us = 10.0\nt2_us = {t2_us!r}\n"
        "[time]\nstop = 2500.0\npoints = 101\n", ramsey_check)

    t1_us = rng.uniform(1.8, 2.2)
    t1_t = np.linspace(0.0, 3000.0 * t1_us, 61)

    def t1_check(path):
        comments, _, rows = read_csv(path)
        check_close("t1 trace", _numbers(rows)[:, 1], np.exp(-t1_t / (1e3 * t1_us)), rtol=1e-6)
        check_close("t1 fitted T1", float(comments["fitted_t1_us"]), t1_us, rtol=0.05)

    add("t1", "t1",
        f"[decoherence]\nt1_us = {t1_us!r}\nt2_us = {t1_us!r}\n[time]\nstop = {3000.0 * t1_us!r}\npoints = 61\n",
        t1_check)

    # cnot: the README config, drawn around E1* = 10, E2* = 7, chi = 1 GHz
    c1, c2, chi = rng.uniform(9.8, 10.2), rng.uniform(6.8, 7.2), rng.uniform(0.9, 1.1)
    camp = (c1 + c2 + chi) / 90.0
    cnu = 2.0 * (c2 - chi)
    cnot_ref = ref.cnot_fidelity_rwa(c2, chi, camp, cnu, 0.5 / camp)

    def cnot_check(path):
        comments, _, rows = read_csv(path)
        pops = _numbers(rows, first=1)
        check_close("cnot rows sum to 1", pops.sum(axis=1), np.ones(4), atol=1e-6)
        check_close("cnot fidelity vs RWA", float(comments["fidelity"]), cnot_ref, atol=5e-3)

    add("cnot", "cnot",
        f"[coupled]\nej1 = {c1!r}\nej2 = {c2!r}\nchi = {chi!r}\n[pulse]\namplitude = {camp!r}\nfrequency = {cnu!r}\n",
        cnot_check)

    # noise-psd: the README ensemble with 16 of its 1024 trajectories
    def psd_check(path):
        comments, _, rows = read_csv(path)
        slope = float(comments["loglog_slope"])
        check(abs(slope + 1.0) <= 0.15, f"1/f slope {slope:.3f} outside -1 +- 0.15")
        check(bool(np.all(_numbers(rows)[:, 1] > 0)), "non-positive PSD bin")

    add("noise_psd", "noise-psd",
        f"[run]\nseed = {int(rng.integers(1 << 31))}\n[noise]\ncount = 20\ngamma_min = 1e-3\ngamma_max = 10.0\n"
        "coupling = 1e-3\ndt = 0.01\nsamples = 65536\ntrajectories = 16\nnperseg = 32768\n", psd_check)

    # jc: criterion 9, closed and resonant
    g = rng.uniform(0.09, 0.11)
    jc_t = np.linspace(0.0, 12.0, 121)

    def jc_check(path):
        comments, _, rows = read_csv(path)
        check_close("jc vs cos^2(2 pi g t)", _numbers(rows)[:, 1], np.cos(2 * math.pi * g * jc_t) ** 2, atol=1e-6)
        check(comments.get("strong_coupling") == "True", "closed JC must satisfy strong coupling")

    add("jc", "jc", f"[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = {g!r}\nn_ph = 4\n[time]\nstop = 12.0\npoints = 121\n",
        jc_check)

    # fluxoid: rf-SQUID minima and their fluxoid numbers
    sj, sl, sphi = rng.uniform(9.0, 11.0), rng.uniform(1.8, 2.2), rng.uniform(2.8, 3.2)
    minima = ref.rf_squid_minima(sj, sl, sphi)

    def fluxoid_check(path):
        _, _, rows = read_csv(path)
        data = _numbers(rows)
        check_close("fluxoid minima", data[:, 0], minima, atol=1e-8)
        check_close("fluxoid numbers", data[:, 1], np.round(np.array(minima) / (2 * math.pi)), atol=0)

    add("fluxoid", "fluxoid",
        f"[rf-squid]\nej = {sj!r}\nec = 0.1\ninductive_scale = {sl!r}\nphi_ext = {sphi!r}\n", fluxoid_check)
    return cmds

