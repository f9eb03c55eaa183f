"""Registry of the cohomological facts derivation steps may invoke.

Arithmetic claims are machine-checked; everything else a derivation needs
is an AxiomUse step naming one of the ids below.  Keeping the facts in one
table makes every non-arithmetic appeal auditable: a script cannot cite a
fact that is not registered, and the registry states each fact precisely.

These are standard theorems about K3 surfaces, linear systems and
base-point-free pencils; none of them is checked by the engine.
"""

AXIOMS: dict[str, str] = {
    "AX-SERRE":
        "Serre duality on a K3 surface: h^i(F) = h^(2-i)(F^dual) for a "
        "sheaf F; for a line bundle D, h^2(D) = h^0(-D).",
    "AX-H1NONNEG":
        "Cohomology dimensions are nonnegative: h^i >= 0 for every sheaf.",
    "AX-AMPLE-POSITIVE":
        "A nonzero effective class has positive degree against any ample "
        "class; a class of nonpositive degree has empty linear system.",
    "AX-2CONNECTED":
        "Members of a base-point-free linear system with positive "
        "self-intersection on a K3 are 2-connected: any effective "
        "decomposition D = D1 + D2 has D1.D2 >= 2.  For a movable class P "
        "this also bounds P.N >= 2 against the classes split off a "
        "destabilized bundle.",
    "AX-1CONNECTED-H1":
        "h^1(O(D)) = 0 for D effective forces 1-connectedness: a "
        "decomposition D = D1 + D2 into nonzero effectives with "
        "D1.D2 <= 0 makes h^1(O(D)) nonzero.",
    "AX-ELLIPTIC-H1":
        "For an elliptic pencil class F, h^0(O(rF)) = r + 1 and "
        "h^1(O(rF)) = r - 1 for r >= 1.",
    "AX-VA-DEGREE3":
        "For a very ample H with H^2 = 4: a nonzero class D with D^2 >= 0 "
        "and H.D > 0 is effective with H.D >= 3; if D^2 = 0 and H.D = 3 "
        "the moving part of |D| is an elliptic pencil.",
    "AX-AMPLE-DEGREE1-IRREDUCIBLE":
        "An effective divisor of degree 1 against a very ample class is "
        "reduced and irreducible.",
    "AX-INITIALIZED-CRIT":
        "For an initialized bundle E fitting 0 -> O -> E -> O(C-H+..)xJ_Z "
        "-> 0 twisted back by H: h^0(O(C-H) x J_Z) = 0; twisting down by "
        "any further effective class keeps h^0 = 0.",
    "AX-BPF-ACM":
        "An initialized aCM line bundle B on the quartic with B^2 >= 2 is "
        "base point free; with B^2 = 0 its moving part is nonempty.",
    "AX-ACM-VANISH":
        "An aCM bundle E on the quartic has h^1(E(l)) = 0 for every "
        "integer l.",
    "AX-RK2-SELFDUAL":
        "A rank-2 bundle satisfies E^dual = E(-c1(E)).",
    "AX-NONSIMPLE-RHO":
        "If rho(g, 1, d) < 0 the pencil bundle is non-simple, so it sits "
        "in a destabilizing extension by line bundles.",
    "AX-DESTAB-SEQ":
        "A non-simple initialized aCM pencil bundle E with c1 = C, c2 = d "
        "admits 0 -> M -> E -> N x J_Z' -> 0 with M, N effective and "
        "movable, h^0(N) >= 2, M.N + len(Z') = d, M + N = C, and (after "
        "swapping) M^2 >= N^2.  When d is the minimal gonality of curves "
        "in |C| the subscheme Z' is empty and h^1(M) = h^1(N) = 0.",
    "AX-INDECOMP":
        "If E above is indecomposable then M != N and h^0(M - N) > 0, so "
        "M - N is a nonzero effective class and H.M > H.N.",
    "AX-PENCIL-RESTRICT":
        "For an elliptic fiber N and the movable distinguished class B of "
        "an initialized aCM pencil bundle: B.N <= 1 would force either "
        "h^0(B) <= 1 or a section of E(-H), both impossible, so B.N >= 2.",
    "AX-NEF-BPF":
        "A base-point-free class is nef: it meets every effective class "
        "nonnegatively.",
    "AX-SECTIONS-BOUND":
        "An initialized aCM rank-2 bundle on the quartic has h^0(E) <= 8.",
    "AX-P1-SPLIT":
        "A vector bundle on a smooth rational curve splits as a direct "
        "sum of line bundles O(a_i).",
    "AX-P1-SECTIONS":
        "On a smooth rational curve h^0(O(k)) = max(0, k + 1); a rank-2 "
        "split bundle of total degree -1 always has a summand of "
        "nonnegative degree, hence sections.",
    "AX-LES":
        "Long-exact-sequence bookkeeping: for 0 -> A -> B -> C -> 0, "
        "h^0(B) <= h^0(A) + h^0(C), h^1(C) <= h^1(B) + h^0(A)... the "
        "standard two-out-of-three dimension bounds.",
    "AX-TWIST-MONO":
        "Twisting down by an effective class never creates sections: "
        "h^0(F(-D)) <= h^0(F) for D effective.",
    "AX-LM-CONSTRUCT":
        "Existence half of the gonality computation: a base-point-free "
        "pencil of degree d on a smooth curve C in the surface arises "
        "from a rank-2 bundle with c1 = C, c2 = d; for C in |2B| the "
        "split bundle B + B realizes d = B^2.",
    "AX-HODGE-INDEX":
        "Hodge index theorem: the Picard lattice has signature (1, rho-1), "
        "so D1^2 D2^2 <= (D1.D2)^2 whenever D1^2 > 0 and D2^2 > 0; a class "
        "of nonnegative square orthogonal to a positive-square class is "
        "zero, so a nonzero nef class meets any positive-square class "
        "positively.",
}


def is_registered(axiom_id: str) -> bool:
    return axiom_id in AXIOMS
