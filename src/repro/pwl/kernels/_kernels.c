/* Compiled hot kernels for the stacked CNFET evaluation path.
 *
 * Scalar-per-lane ports of the measured hot spots of the pure numpy
 * engine (see repro/pwl/kernels/numpy_backend.py for the reference
 * implementations these mirror):
 *
 *   1. stacked_vsc_solve  — the shifted-cubic region-pair solve of
 *      StackedVscSolver.solve: the hinted pair, then the located pair,
 *      each residual-validated;
 *   2. bank_stamp         — the fused per-iteration CNFETBank stamp:
 *      bias gather from the iterate, chord check against the
 *      per-device memo, the per-device bypass against the anchor of
 *      the last full evaluation, the kernel-1 solve, currents,
 *      charges and analytic partials, companion and exact rhs, q_prev
 *      seeding, and the scatter-add into the caller's matrix / rhs
 *      buffers through flat index maps — one call per Newton
 *      iteration;
 *   3. scatter_accum — the sparse assembler's dynamic-value
 *      scatter-add into its CSC data;
 *   4. lu_refactor / lu_solve_factored / csc_residual_inf — frozen-
 *      pivot numeric LU refactorization.  SuperLU re-runs its full
 *      symbolic analysis (ordering, pivoting, supernode detection,
 *      allocation) on every Newton iteration even though the sparsity
 *      pattern is constant per run; these kernels replay only the
 *      numeric phase against the L/U patterns and permutations
 *      extracted from one scipy ``splu`` call, which is ~10x cheaper
 *      for MNA-sized systems.  Static pivoting can go stale as the
 *      Jacobian values drift, so every solve is residual-guarded on
 *      the Python side and falls back to a fresh factorization.
 *
 * Parity contract: every lane computes the same quantities as the
 * numpy reference, agreeing to rounding (<= 1e-12 V on the VSC solve,
 * whose residual validation bounds the root error by construction;
 * 1e-12 relative on the bank stamp).  Beyond libm-vs-SIMD
 * transcendentals, one shortcut stays inside that bound: the Newton
 * polish of the VSC hint (see pair_root).  Compile with
 * -ffp-contract=off: FMA contraction would change the rounding
 * sequence.
 *
 * No Python/numpy headers on purpose — the library is built with a
 * bare C compiler and loaded through ctypes, so the compiled tier
 * needs nothing beyond libm at runtime.
 */

#include <math.h>
#include <stdint.h>

/* DEGREE_TOL, RESIDUAL_TOL, EDGE_TOL, VDS_QUANTUM and VDS_SCALE are the
 * constants of repro.pwl.kernels (a tier-1 test compares them) */
#define EPSILON 2.220446049250313e-16
#define DEGREE_TOL 1e-14
#define RESIDUAL_TOL 1e-12
#define EDGE_TOL 1e-9
#define VDS_QUANTUM 1e-12
#define VDS_SCALE 1e12
/* hint polish of the VSC solve: Newton steps and the step size [V]
 * past which one more step changes nothing representable */
#define NEWTON_STEPS 6
#define NEWTON_STEP_TOL 1e-13
/* Viete phase offsets 2*pi*k/3, the exact doubles of the numpy path */
#define PHI1 2.0943951023931953
#define PHI2 4.1887902047863905

typedef int64_t idx_t;

/* ------------------------------------------------------------------ */
/* kernel 1: stacked self-consistent-voltage solve                     */
/* ------------------------------------------------------------------ */

/* number of breakpoints strictly below v (bps padded with +inf) */
static int region_of(const double *bps, idx_t k_bps, double v)
{
    int region = 0;
    for (idx_t j = 0; j < k_bps; j++)
        region += bps[j] < v;
    return region;
}

/* real roots of c0 + c1 x + c2 x^2 + c3 x^3, NaN-padded into roots[3];
 * mirrors real_roots_batch (degree classification, Cardano / Viete,
 * discriminant noise floor) lane by lane. */
static void real_roots_scalar(double c0, double c1, double c2, double c3,
                              double *roots)
{
    roots[0] = roots[1] = roots[2] = NAN;
    double scale = fmax(fmax(fabs(c0), fabs(c1)),
                        fmax(fabs(c2), fabs(c3)));
    double tol = DEGREE_TOL * scale;
    if (fabs(c3) >= tol) {
        /* includes the all-zero lane (tol == 0): the divisions below
         * produce NaN roots exactly as the vectorized path does. */
        double a = c2 / c3;
        double b = c1 / c3;
        double c = c0 / c3;
        double a_third = a / 3.0;
        double p = b - a * a_third;
        double q = 2.0 * a * a * a / 27.0 - a * b / 3.0 + c;
        double half_q = 0.5 * q;
        double third_p = p / 3.0;
        double disc = half_q * half_q + third_p * third_p * third_p;
        double abs_a = fabs(a);
        double mag_q = abs_a * abs_a * abs_a / 27.0
            + fabs(a * b) / 3.0 + fabs(c);
        double mag_p = fabs(b) + a * a / 3.0;
        double disc_noise = 8.0 * EPSILON * (
            fabs(half_q) * mag_q + third_p * third_p * 3.0 * mag_p);
        if (fabs(disc) < disc_noise)
            disc = 0.0;
        if (disc > 0.0) {
            double sqrt_disc = sqrt(disc);
            roots[0] = cbrt(-half_q + sqrt_disc)
                + cbrt(-half_q - sqrt_disc) - a_third;
        } else if (disc < 0.0) {
            /* disc < 0 forces third_p < 0 */
            double m = 2.0 * sqrt(-third_p);
            double pm = p * m;
            double arg = (3.0 * q) / pm;
            if (arg > 1.0) arg = 1.0;
            if (arg < -1.0) arg = -1.0;
            double theta = acos(arg) / 3.0;
            roots[0] = m * cos(theta) - a_third;
            roots[1] = m * cos(theta - PHI1) - a_third;
            roots[2] = m * cos(theta - PHI2) - a_third;
        } else if (disc == 0.0) {
            double u = cbrt(-half_q);
            double r1 = 2.0 * u - a_third;
            double r2 = -u - a_third;
            roots[0] = (half_q == 0.0) ? -a_third : r1;
            if (!(half_q == 0.0 || r1 == r2))
                roots[1] = r2;
        }
        /* disc NaN (all-zero lane): roots stay NaN */
    } else if (fabs(c2) >= tol) {
        double disc = c1 * c1 - 4.0 * c2 * c0;
        double sqrt_disc = sqrt(disc);   /* NaN when disc < 0 */
        double q = -0.5 * (c1 + copysign(sqrt_disc, c1));
        double r0 = q / c2;
        double r1 = (q != 0.0) ? c0 / q : 0.0;
        if (disc == 0.0) {
            r0 = -c1 / (2.0 * c2);
            r1 = NAN;
        }
        roots[0] = r0;
        roots[1] = r1;
    } else if (fabs(c1) >= tol) {
        roots[0] = -c0 / c1;
    }
}

/* Closed-form root of one lane's cubic on the region pair of `probe`
 * (source) and probe + vds_q (drain), validated against the pair's
 * window and RESIDUAL_TOL.  With `polish`, a few Newton steps from the
 * probe itself come first: Newton iterates and time steps move VSC by
 * far less than a region, so the polish lands on the root (to
 * rounding) for nearly every hinted lane — 99.96% of the lane solves
 * of a 32-bit adder hold transient, 99.97% of its carry ripple, 97% of
 * a ring-oscillator MC campaign — for a handful of multiply-adds
 * instead of the closed form's cbrt / acos / cos, under the same
 * validation (without it the hold transient runs about 10% slower).
 * Returns 1 and stores the root in *out when a candidate validates, 0
 * otherwise. */
static int pair_root(const double *bps_r, const double *lo_r,
                     const double *hi_r, const double *polys_r,
                     idx_t k_bps, double qt, double vds_q, double probe,
                     int polish, double *out)
{
    int i_s = region_of(bps_r, k_bps, probe);
    int i_d = region_of(bps_r, k_bps, probe + vds_q);
    const double *qs = polys_r + (idx_t)i_s * 4;
    const double *qd = polys_r + (idx_t)i_d * 4;
    /* Taylor shift of the drain polynomial by quantized VDS */
    double d = vds_q;
    double s0 = qd[0] + d * (qd[1] + d * (qd[2] + d * qd[3]));
    double s1 = qd[1] + d * (2.0 * qd[2] + 3.0 * d * qd[3]);
    double s2 = qd[2] + 3.0 * d * qd[3];
    double s3 = qd[3];
    double e0 = qt - (qs[0] + s0);
    double e1 = 1.0 - (qs[1] + s1);
    double e2 = -(qs[2] + s2);
    double e3 = -(qs[3] + s3);
    double lo = fmax(lo_r[i_s], lo_r[i_d] - vds_q);
    double hi = fmin(hi_r[i_s], hi_r[i_d] - vds_q);
    if (polish) {
        double v = probe;
        for (int it = 0; it < NEWTON_STEPS; it++) {
            double step = (((e3 * v + e2) * v + e1) * v + e0)
                / ((3.0 * e3 * v + 2.0 * e2) * v + e1);
            v -= step;
            if (fabs(step) < NEWTON_STEP_TOL)
                break;
        }
        double rv = fabs(((e3 * v + e2) * v + e1) * v + e0);
        if (rv <= RESIDUAL_TOL && v >= lo - EDGE_TOL
                && v <= hi + EDGE_TOL) {
            *out = v;
            return 1;
        }
    }
    double roots[3];
    real_roots_scalar(e0, e1, e2, e3, roots);
    /* residual validation; argmin keeps the first minimum the way
     * np.argmin does */
    double res[3];
    for (int j = 0; j < 3; j++) {
        double root = roots[j];
        double rv = fabs(((e3 * root + e2) * root + e1) * root + e0);
        int inside = root >= lo - EDGE_TOL && root <= hi + EDGE_TOL;
        res[j] = (inside && isfinite(rv)) ? rv : INFINITY;
    }
    int pick = 0;
    if (res[1] < res[pick]) pick = 1;
    if (res[2] < res[pick]) pick = 2;
    if (res[pick] <= RESIDUAL_TOL) {
        *out = roots[pick];
        return 1;
    }
    return 0;
}

/* scaled source charge QS(v) / CSum of one lane; a breakpoint belongs
 * to the region on its left */
static double lane_charge(const double *bps_r, const double *polys_r,
                          idx_t k_bps, double v)
{
    const double *c = polys_r + (idx_t)region_of(bps_r, k_bps, v) * 4;
    return ((c[3] * v + c[2]) * v + c[1]) * v + c[0];
}

/* A probe inside the interval of merged breakpoints (source, and drain
 * shifted by -vds_q) that brackets the lane's root: the residual g is
 * strictly increasing, so the points where it is negative are those
 * left of the root.  The midpoint between the last of them and the
 * first of the rest, or one volt beyond the outermost point for a root
 * outside them all (the numpy tier's _locate, point for point). */
static double locate_probe(const double *bps_r, const double *polys_r,
                           idx_t k_bps, double qt, double vds_q)
{
    double below = -INFINITY, above = INFINITY;
    for (idx_t j = 0; j < 2 * k_bps; j++) {
        double v = j < k_bps ? bps_r[j] : bps_r[j - k_bps] - vds_q;
        double g = v + qt - lane_charge(bps_r, polys_r, k_bps, v)
            - lane_charge(bps_r, polys_r, k_bps, v + vds_q);
        /* (a +inf padded breakpoint is never below) */
        if (g < 0.0 && v < INFINITY) {
            if (v > below)
                below = v;
        } else if (v < above) {
            above = v;
        }
    }
    if (below == -INFINITY)
        return above - 1.0;
    if (above == INFINITY)
        return below + 1.0;
    return 0.5 * (below + above);
}

/* One lane of the stacked VSC solve: the hinted region pair (Newton-
 * polished), then the located pair.  Returns 0 when neither validates
 * (the caller's exact scalar fallback). */
static int vsc_lane(
    idx_t r, double vgs, double vds,
    const double *bps, const double *lo_edges, const double *hi_edges,
    const double *polys, const double *cg, const double *cd,
    const double *csum, idx_t k_bps, double hint, double *out)
{
    idx_t stride_e = k_bps + 1;       /* edges per lane */
    const double *bps_r = bps + r * k_bps;
    const double *lo_r = lo_edges + r * stride_e;
    const double *hi_r = hi_edges + r * stride_e;
    const double *polys_r = polys + r * stride_e * 4;
    double vds_q = floor(vds * VDS_SCALE + 0.5) * VDS_QUANTUM;
    double qt = (cg[r] * vgs + cd[r] * vds) / csum[r];
    if (pair_root(bps_r, lo_r, hi_r, polys_r, k_bps, qt, vds_q, hint, 1,
                  out))
        return 1;
    return pair_root(bps_r, lo_r, hi_r, polys_r, k_bps, qt, vds_q,
                     locate_probe(bps_r, polys_r, k_bps, qt, vds_q), 0,
                     out);
}

/* Stacked VSC solve over selected lanes (StackedVscSolver.solve):
 * lane rows[k] warm-started from probe[k]; lanes that fail residual
 * validation land in `bad` (selection positions) for the caller's
 * scalar fallback.  Returns the number of bad lanes. */
idx_t stacked_vsc_solve(
    idx_t n, const idx_t *rows,
    const double *vgs, const double *vds,
    const double *bps, const double *lo_edges, const double *hi_edges,
    const double *polys, const double *cg, const double *cd,
    const double *csum, idx_t k_bps,
    const double *probe, double *out, idx_t *bad)
{
    idx_t n_bad = 0;
    for (idx_t k = 0; k < n; k++) {
        if (!vsc_lane(rows[k], vgs[k], vds[k], bps, lo_edges, hi_edges,
                      polys, cg, cd, csum, k_bps, probe[k], out + k))
            bad[n_bad++] = k;
    }
    return n_bad;
}

/* ------------------------------------------------------------------ */
/* kernel 2: fused CNFET bank stamp                                    */
/* ------------------------------------------------------------------ */

static double log1pexp_scalar(double x)
{
    if (x > 35.0)
        return x;
    if (x < -35.0)
        return exp(x);
    return log1p(exp(x));
}

static double logistic_scalar(double x)
{
    if (x >= 0.0)
        return 1.0 / (1.0 + exp(-x));
    double e = exp(x);
    return e / (1.0 + e);
}

/* piecewise-cubic curve value: region lookup + Horner */
static double curve_value(const double *bps_r, const double *coeffs_r,
                          idx_t k_bps, double v)
{
    int region = region_of(bps_r, k_bps, v);
    const double *c = coeffs_r + (idx_t)region * 4;
    return ((c[3] * v + c[2]) * v + c[1]) * v + c[0];
}

static double curve_derivative(const double *bps_r,
                               const double *dcoeffs_r,
                               idx_t k_bps, double v)
{
    int region = region_of(bps_r, k_bps, v);
    const double *c = dcoeffs_r + (idx_t)region * 3;
    return (c[2] * v + c[1]) * v + c[0];
}

#define N_KINDS 17
#define N_RHS 5

/* The bypass anchor of one device: its dt-independent linearisation at
 * the bias of its last full evaluation, N_ANCHOR doubles in this
 * order — the bias, the current and its two conductances, the three
 * terminal charges (G, D, S) and their VGS and VDS partials.  A
 * device's evaluation state has the same layout, the bias being the
 * point it was linearised at. */
#define N_ANCHOR 14
enum { A_VGS, A_VDS, A_IDS, A_GM, A_GDS, A_Q, A_DQG = A_Q + 3,
       A_DQD = A_DQG + 3 };

/* The bank's persistent arrays (CNFETBank), bound once per bank.
 * Per-device state is indexed by the bank position r: sign, length,
 * hints, the chord memo ((N_KINDS, p) values), q_prev ((3, p)),
 * row-major, and the bypass anchors ((p, N_ANCHOR), a NaN bias where
 * a device has none).  Device parameters, solver and curve tables are
 * indexed by the device's table row table[r] (devices sharing one
 * model share one row, which keeps the working set cache-sized).  The
 * gather table holds, per terminal row (g, d, s), each device's flat
 * position in the iterate, -1 for ground.  vgs/vds/vsc/bad are
 * p-sized scratch in selection order, read back by the caller for the
 * scalar fallback. */
typedef struct {
    idx_t p;
    const idx_t *gather, *table;
    const double *sign, *length, *kt, *ef, *pref, *cg, *cd, *csum;
    idx_t s_kbps;
    const double *s_bps, *s_lo, *s_hi, *s_polys, *s_cg, *s_cd, *s_csum;
    idx_t c_kbps;
    const double *c_bps, *c_coeffs, *c_dcoeffs;
    double *hint, *q_prev;
    double *memo_vgs, *memo_vds, *memo_values;
    uint8_t *memo_valid;
    double *anchor;
    double *vgs, *vds, *vsc;
    idx_t *bad;
} bank_t;

/* One bank_stamp call.  `idx` (NULL: every device) selects n devices.
 * pass 0 gathers the biases, takes the chord decision (stored in
 * `chord`), bypasses the devices within `bypass` of their anchor
 * (counted in n_bypassed; 0 disables the bypass) and solves every
 * other lane; pass 1 revisits only the n_sub selection positions
 * `sub`, whose vsc the caller filled in after the scalar fallback.
 * The destination is a flat matrix buffer and an rhs buffer (possibly
 * the same one) with (N_KINDS, p) / (N_RHS, p) index maps, entries >=
 * the buffer size discarded; a charges_only call has none. */
typedef struct {
    idx_t n;
    const idx_t *idx;
    const double *x;
    double gmin, dt, radius, bypass;
    int32_t tran, seed, charges_only, pass;
    int32_t chord;
    idx_t n_bypassed;
    idx_t n_sub;
    const idx_t *sub;
    double *m_out;
    const idx_t *m_map;
    idx_t m_size;
    double *r_out;
    const idx_t *r_map;
    idx_t r_size;
} stamp_call_t;

/* terminal charges (G, D, S) at an n-frame bias and its vsc */
static void charges_lane(const bank_t *b, idx_t r, double vg, double vd,
                         double v, double *q0)
{
    idx_t k_bps = b->c_kbps;
    idx_t m = b->table[r];   /* model row */
    double len = b->length[r];
    double q_d_mobile = curve_value(b->c_bps + m * k_bps,
                                    b->c_coeffs + m * (k_bps + 1) * 4,
                                    k_bps, v + vd);
    double qg = len * b->cg[m] * (vg + v);
    double qd = len * (b->cd[m] * (vd + v) - q_d_mobile);
    q0[0] = qg;
    q0[1] = qd;
    q0[2] = -(qg + qd);
}

/* Full evaluation of device r at (vg, vd) and its vsc v into the
 * state st: current and conductances, and in transient the charges
 * and their analytic partials. */
static void eval_lane(const bank_t *b, const stamp_call_t *c, idx_t r,
                      double vg, double vd, double v, double *st)
{
    idx_t k_bps = b->c_kbps;
    idx_t m = b->table[r];   /* model row */
    double kt_r = b->kt[m];
    double eta_s = (b->ef[m] - v) / kt_r;
    double eta_d = eta_s - vd / kt_r;
    double pref_r = b->pref[m];
    double sig_s = logistic_scalar(eta_s);
    double sig_d = logistic_scalar(eta_d);
    double di_dvsc = (pref_r / kt_r) * (sig_d - sig_s);
    const double *cbps_r = b->c_bps + m * k_bps;
    const double *dco_r = b->c_dcoeffs + m * (k_bps + 1) * 3;
    double dq_s = curve_derivative(cbps_r, dco_r, k_bps, v);
    double dq_d = curve_derivative(cbps_r, dco_r, k_bps, v + vd);
    double cg_r = b->cg[m], cd_r = b->cd[m];
    double denominator = b->csum[m] - dq_s - dq_d;
    double dvsc_g = -cg_r / denominator;
    double dvsc_d = -(cd_r - dq_d) / denominator;
    st[A_VGS] = vg;
    st[A_VDS] = vd;
    st[A_IDS] = pref_r * (log1pexp_scalar(eta_s)
                          - log1pexp_scalar(eta_d));
    st[A_GM] = di_dvsc * dvsc_g;
    st[A_GDS] = (pref_r / kt_r) * sig_d + di_dvsc * dvsc_d;
    if (!c->tran)
        return;
    double len = b->length[r];
    charges_lane(b, r, vg, vd, v, st + A_Q);
    double dg_gs = len * cg_r * (1.0 + dvsc_g);
    double dg_ds = len * cg_r * dvsc_d;
    double dd_gs = len * dvsc_g * (cd_r - dq_d);
    double dd_ds = len * (1.0 + dvsc_d) * (cd_r - dq_d);
    st[A_DQG] = dg_gs;
    st[A_DQG + 1] = dd_gs;
    st[A_DQG + 2] = -(dg_gs + dd_gs);
    st[A_DQD] = dg_ds;
    st[A_DQD + 1] = dd_ds;
    st[A_DQD + 2] = -(dg_ds + dd_ds);
}

/* Bypassed device r at (vg, vd): its anchor's linearisation, with the
 * current and charges moved along the anchor's tangent. */
static void tangent_lane(const bank_t *b, idx_t r, double vg, double vd,
                         double *st)
{
    const double *a = b->anchor + r * N_ANCHOR;
    double dvg = vg - a[A_VGS], dvd = vd - a[A_VDS];
    for (int j = 0; j < N_ANCHOR; j++)
        st[j] = a[j];
    st[A_IDS] = a[A_IDS] + a[A_GM] * dvg + a[A_GDS] * dvd;
    for (int t = 0; t < 3; t++)
        st[A_Q + t] = a[A_Q + t] + a[A_DQG + t] * dvg
            + a[A_DQD + t] * dvd;
}

/* Companion of device r at (vg, vd) from its state st: matrix values
 * (17|8) and rhs (5|2) in the numpy tier's kind order — or, on a
 * chord hit, the memoised matrix values with the exact rhs around
 * them — landed in the destinations.  Seeds q_prev from the state's
 * charges when asked; outside the chord it memoises the stamped
 * values at the state's linearisation bias. */
static void stamp_lane(const bank_t *b, const stamp_call_t *c, idx_t r,
                       double vg, double vd, const double *st)
{
    idx_t p = b->p;
    double gmin = c->gmin;
    double s_ = b->sign[r];
    int nk = c->tran ? N_KINDS : 8;
    int nr = c->tran ? N_RHS : 2;
    double val[N_KINDS], rhs[N_RHS];
    double gm, gds;
    if (c->chord) {
        for (int j = 0; j < nk; j++)
            val[j] = b->memo_values[j * p + r];
        gm = val[0];
        gds = val[2] - gmin;
    } else {
        gm = st[A_GM];
        gds = st[A_GDS];
        val[0] = gm;
        val[1] = -(gm + gmin);
        val[2] = gds + gmin;
        val[3] = gm + gds + 2.0 * gmin;
        val[4] = -(gm + gds + gmin);
        val[5] = -(gds + gmin);
        val[6] = gmin;
        val[7] = -gmin;
    }
    double residual = s_ * st[A_IDS] - gm * s_ * vg - gds * s_ * vd;
    rhs[0] = -residual;
    rhs[1] = residual;
    if (c->tran) {
        const double *q0 = st + A_Q;
        if (c->seed)
            for (int t = 0; t < 3; t++)
                b->q_prev[t * p + r] = q0[t];
        for (int t = 0; t < 3; t++) {
            int row = 8 + 3 * t;
            double geq_gs, geq_ds;
            if (c->chord) {
                geq_gs = val[row];
                geq_ds = val[row + 1];
            } else {
                geq_gs = st[A_DQG + t] / c->dt;
                geq_ds = st[A_DQD + t] / c->dt;
                val[row] = geq_gs;
                val[row + 1] = geq_ds;
                val[row + 2] = -(geq_gs + geq_ds);
            }
            double i_now = (q0[t] - b->q_prev[t * p + r]) / c->dt;
            rhs[2 + t] = -(s_ * i_now - geq_gs * s_ * vg - geq_ds * s_ * vd);
        }
    }
    if (!c->chord) {
        if (c->radius > 0.0) {
            for (int j = 0; j < nk; j++)
                b->memo_values[j * p + r] = val[j];
            b->memo_vgs[r] = st[A_VGS];
            b->memo_vds[r] = st[A_VDS];
            b->memo_valid[r] = 1;
        } else {
            b->memo_valid[r] = 0;
        }
    }
    for (int j = 0; j < nk; j++) {
        idx_t pos = c->m_map[j * p + r];
        if (pos < c->m_size)
            c->m_out[pos] += val[j];
    }
    for (int j = 0; j < nr; j++) {
        idx_t pos = c->r_map[j * p + r];
        if (pos < c->r_size)
            c->r_out[pos] += rhs[j];
    }
}

/* Everything after the solve for selection position k (device r): the
 * charges into q_prev, or the full evaluation (refreshing the anchor
 * while the bypass is on) and its companion. */
static void finish_lane(const bank_t *b, const stamp_call_t *c, idx_t k,
                        idx_t r)
{
    idx_t p = b->p;
    double vg = b->vgs[k], vd = b->vds[k], v = b->vsc[k];
    b->hint[r] = v;
    if (c->charges_only) {
        double q0[3];
        charges_lane(b, r, vg, vd, v, q0);
        for (int t = 0; t < 3; t++)
            b->q_prev[t * p + r] = q0[t];
        return;
    }
    double st[N_ANCHOR];
    eval_lane(b, c, r, vg, vd, v, st);
    if (c->bypass > 0.0)
        for (int j = 0; j < N_ANCHOR; j++)
            b->anchor[r * N_ANCHOR + j] = st[j];
    stamp_lane(b, c, r, vg, vd, st);
}

/* A bypassed device r at selection position k: no solve, the anchor's
 * tangent into q_prev or through the companion. */
static void bypass_lane(const bank_t *b, const stamp_call_t *c, idx_t k,
                        idx_t r)
{
    idx_t p = b->p;
    double vg = b->vgs[k], vd = b->vds[k];
    double st[N_ANCHOR];
    tangent_lane(b, r, vg, vd, st);
    if (c->charges_only) {
        for (int t = 0; t < 3; t++)
            b->q_prev[t * p + r] = st[A_Q + t];
        return;
    }
    stamp_lane(b, c, r, vg, vd, st);
}

/* Fused per-iteration bank stamp: gather the n-frame biases from x,
 * take the chord decision against the per-device memo, bypass the
 * devices whose bias lies within c->bypass of their anchor, run the
 * kernel-1 VSC solve for the rest, evaluate the companion (or the
 * chord rhs, or only the charges into q_prev) and land it in the
 * destinations.  Lanes whose solve fails validation are skipped and
 * listed in b->bad; returns their count (pass 0) or 0 (pass 1). */
idx_t bank_stamp(const bank_t *b, stamp_call_t *c)
{
    idx_t n = c->n;
    if (c->pass) {
        for (idx_t i = 0; i < c->n_sub; i++) {
            idx_t k = c->sub[i];
            finish_lane(b, c, k, c->idx ? c->idx[k] : k);
        }
        return 0;
    }
    idx_t p = b->p;
    const double *x = c->x;
    const idx_t *gg = b->gather, *gd = b->gather + p, *gs = b->gather + 2 * p;
    for (idx_t k = 0; k < n; k++) {
        idx_t r = c->idx ? c->idx[k] : k;
        double vs = gs[r] < 0 ? 0.0 : x[gs[r]];
        double vg = gg[r] < 0 ? 0.0 : x[gg[r]];
        double vd = gd[r] < 0 ? 0.0 : x[gd[r]];
        b->vgs[k] = b->sign[r] * (vg - vs);
        b->vds[k] = b->sign[r] * (vd - vs);
    }
    /* chord: every selected device holds a memo within the radius */
    int chord = !c->charges_only && c->radius > 0.0;
    for (idx_t k = 0; chord && k < n; k++) {
        idx_t r = c->idx ? c->idx[k] : k;
        chord = b->memo_valid[r]
            && fabs(b->vgs[k] - b->memo_vgs[r]) <= c->radius
            && fabs(b->vds[k] - b->memo_vds[r]) <= c->radius;
    }
    c->chord = chord;
    idx_t n_bad = 0, n_bypassed = 0;
    for (idx_t k = 0; k < n; k++) {
        idx_t r = c->idx ? c->idx[k] : k;
        const double *a = b->anchor + r * N_ANCHOR;
        /* a NaN anchor bias (none yet) compares false */
        if (c->bypass > 0.0
                && fabs(b->vgs[k] - a[A_VGS]) <= c->bypass
                && fabs(b->vds[k] - a[A_VDS]) <= c->bypass) {
            bypass_lane(b, c, k, r);
            n_bypassed++;
        } else if (vsc_lane(b->table[r], b->vgs[k], b->vds[k], b->s_bps,
                            b->s_lo, b->s_hi, b->s_polys, b->s_cg,
                            b->s_cd, b->s_csum, b->s_kbps, b->hint[r],
                            b->vsc + k)) {
            finish_lane(b, c, k, r);
        } else {
            b->bad[n_bad++] = k;
        }
    }
    c->n_bypassed = n_bypassed;
    return n_bad;
}

/* ------------------------------------------------------------------ */
/* kernel 3: sparse value scatter                                      */
/* ------------------------------------------------------------------ */

/* data[map[i]] += val[i] — the dynamic-value scatter of the sparse
 * assembler (data preloaded with the static part by the caller). */
void scatter_accum(double *data, const idx_t *map, const double *val,
                   idx_t n)
{
    for (idx_t i = 0; i < n; i++)
        data[map[i]] += val[i];
}

/* ------------------------------------------------------------------ */
/* kernel 4: frozen-pivot numeric LU refactorization                   */
/* ------------------------------------------------------------------ */

/* Left-looking numeric refactorization of a CSC matrix against frozen
 * L/U patterns and permutations (from one SuperLU factorization of
 * the same pattern, Equil off):
 *
 *     Pr A Pc = L U,   row i of A -> row pr[i],  LU column j draws
 *     from A column pcinv[j].
 *
 * Patterns must be column-sorted with the L diagonal (unit) first and
 * the U diagonal last in each column; the A pattern is structurally
 * contained in L+U by construction.  `work` is an n-sized scratch the
 * caller keeps zeroed between calls (every touched entry is cleared
 * on exit, including the early-return path).
 *
 * Returns 0 on success, j+1 when column j hits a zero / non-finite
 * pivot — the caller then refreshes the symbolic factorization. */
idx_t lu_refactor(
    idx_t n,
    const idx_t *ap, const idx_t *ai, const double *ax,
    const idx_t *pr, const idx_t *pcinv,
    const idx_t *lp, const idx_t *li, double *lx,
    const idx_t *up, const idx_t *ui, double *ux,
    double *work)
{
    for (idx_t j = 0; j < n; j++) {
        idx_t col = pcinv[j];
        for (idx_t p = ap[col]; p < ap[col + 1]; p++)
            work[pr[ai[p]]] = ax[p];
        /* eliminate with the already-factored columns named by the
         * U pattern (ascending, diagonal excluded) */
        for (idx_t p = up[j]; p < up[j + 1] - 1; p++) {
            idx_t k = ui[p];
            double ukj = work[k];
            ux[p] = ukj;
            if (ukj != 0.0)
                for (idx_t q = lp[k] + 1; q < lp[k + 1]; q++)
                    work[li[q]] -= ukj * lx[q];
        }
        double diag = work[j];
        ux[up[j + 1] - 1] = diag;
        int bad = !isfinite(diag) || diag == 0.0;
        lx[lp[j]] = 1.0;
        for (idx_t q = lp[j] + 1; q < lp[j + 1]; q++)
            lx[q] = bad ? 0.0 : work[li[q]] / diag;
        for (idx_t p = ap[col]; p < ap[col + 1]; p++)
            work[pr[ai[p]]] = 0.0;
        for (idx_t p = up[j]; p < up[j + 1]; p++)
            work[ui[p]] = 0.0;
        for (idx_t q = lp[j]; q < lp[j + 1]; q++)
            work[li[q]] = 0.0;
        if (bad)
            return j + 1;
    }
    return 0;
}

/* Solve A x = b from a lu_refactor factorization:
 * permute (prinv), forward L (unit diagonal), backward U, permute
 * back (pc).  `work` is n scratch; out may not alias b. */
void lu_solve_factored(
    idx_t n,
    const idx_t *lp, const idx_t *li, const double *lx,
    const idx_t *up, const idx_t *ui, const double *ux,
    const idx_t *prinv, const idx_t *pc,
    const double *b, double *out, double *work)
{
    for (idx_t i = 0; i < n; i++)
        work[i] = b[prinv[i]];
    for (idx_t j = 0; j < n; j++) {
        double yj = work[j];
        if (yj != 0.0)
            for (idx_t q = lp[j] + 1; q < lp[j + 1]; q++)
                work[li[q]] -= yj * lx[q];
    }
    for (idx_t j = n - 1; j >= 0; j--) {
        double zj = work[j] / ux[up[j + 1] - 1];
        work[j] = zj;
        if (zj != 0.0)
            for (idx_t p = up[j]; p < up[j + 1] - 1; p++)
                work[ui[p]] -= zj * ux[p];
    }
    for (idx_t i = 0; i < n; i++)
        out[i] = work[pc[i]];
}

/* max_i |A x - b| for a CSC matrix — the per-solve staleness guard of
 * the refactorization lane (cheap: one pass over the nonzeros). */
double csc_residual_inf(
    idx_t n,
    const idx_t *ap, const idx_t *ai, const double *ax,
    const double *x, const double *b, double *work)
{
    for (idx_t i = 0; i < n; i++)
        work[i] = -b[i];
    for (idx_t col = 0; col < n; col++) {
        double xc = x[col];
        if (xc != 0.0)
            for (idx_t p = ap[col]; p < ap[col + 1]; p++)
                work[ai[p]] += ax[p] * xc;
    }
    double worst = 0.0;
    for (idx_t i = 0; i < n; i++) {
        double r = fabs(work[i]);
        if (r > worst)
            worst = r;
        work[i] = 0.0;
    }
    return worst;
}
