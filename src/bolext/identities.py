"""The identity suites, written once as data, and the exact readers.

Every suite the engine decides (the Bol axioms, the two morphism
identities, of one structure to itself and of one into another, the six
module identities, the abelian (2,3)-cocycle identities,
the non-abelian cocycle identities in both variants, and the three decisions
about a map phi: B -> V: cocycle equivalence, inducibility of an automorphism
pair, and degree-one cocycles) is a table of identities.  An identity is a
tag, the basis axes it is checked on (`where`), the axes of its residual
(`out`), and signed einsum terms over named dense tensors:

  bil[i,j,k]     coefficient of e_k in e_i*e_j           (algebra or base)
  tri[i,j,k,l]   coefficient of e_l in [e_i,e_j,e_k]
  nu[i,j,s]      coordinate s of nu(e_i,e_j)
  om[i,j,k,s]    coordinate s of omega(e_i,e_j,e_k)
  mu[i,s,t]      entry (s,t) of the matrix mu(e_i); theta[i,j,s,t] and
                 dd[i,j,s,t] likewise
  vbil, vtri     the fiber's bil and tri
  f[l,q]         coordinate l of f(e_q), for a linear map f of an algebra
                 to itself, or into the algebra of bil2 and tri2
  phi[t,q]       coordinate t of phi(e_q), for the map phi: B -> V
  alpha[q,i]     coordinate q of alpha(e_i), for alpha in Aut(B); beta[s,t]
                 entry (s,t) of beta in Aut(V)
  nu1, ..., dd1  the data of the cocycle an equivalence compares with nu, ...

A term "-tri(ijkq) bil(qlr)" is minus the contraction of its factors over
every index that is not a residual axis; the residual of an identity at a
`where` tuple is the sum of its terms.  A term marked for one variant is only
summed in that variant, and an identity marked for one variant is only
checked in it.  All identities are multilinear, so basis tuples suffice.

Identities listed in one group share a prefix of their `where` axes.  A
report walks a group prefix by prefix and, within one prefix, identity by
identity, which is the order in which violations are emitted.  The first
group of each suite is checked on the triangle j >= i of its first two axes
only, since its identities are symmetric there.

Three readers use the tables, each on the suite of one variant (`select`):
`report` evaluates one structure exactly, on object arrays of Python ints;
`affine` reads the linear system in phi of an EQV, IND or Z1 suite over an
abelian fiber; and `bruteforce.identity_mask` decides a batch of GF(p)
structures on residue arrays, for every brute-force search and the
exactness verifier's `MOR` re-checks.  `nonabelian._orbit` reads `EQV` on
residues as the map phi -> T_phi(c) for a stack of maps phi: the class
verdicts of the exactness verifier look pairs up in that orbit, and
classification reads its equivalence matrix off the orbit at the unit
maps.  All of them drop the dead terms of an identity (`live`): a term with
a factor whose tensor is all zero on the data contributes zero, and an
identity with no live term is not evaluated.  `identity_mask` also drops
dead entries, joining a term's factors over their supports, and reads an
identity with a pair form on the pairs a < b of its first two `where`
letters where the data alternate in them.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

import numpy as np

from .core import ValidationReport, Variant

__all__ = ["Term", "Identity", "Group", "BOL", "MOR", "HOM", "REP", "COCYCLE",
           "NAB", "EQV", "IND", "Z1", "select", "live", "report", "affine", "residues"]


@dataclass(frozen=True)
class Term:
    """sign * the contraction of factors ((tensor name, indices), ...)."""

    sign: int
    factors: tuple
    variant: Optional[Variant] = None


@dataclass(frozen=True)
class Identity:
    tag: str
    where: str
    out: str
    terms: tuple
    variant: Optional[Variant] = None

    @property
    def axes(self) -> str:
        return self.where + self.out


@dataclass(frozen=True)
class Group:
    """Identities that share the first `shared` axes of their `where`."""

    shared: int
    identities: tuple
    triangle: bool = False


_TERM = re.compile(r"([+-])\s*((?:\w+\(\w+\)\s*)+)")
_FACTOR = re.compile(r"(\w+)\((\w+)\)")


def _terms(text: str, variant=None) -> tuple:
    return tuple(Term(1 if sign == "+" else -1, tuple(_FACTOR.findall(body)), variant)
                 for sign, body in _TERM.findall(text))


def _id(tag, where, out, both, corrected="", strict="", variant=None) -> Identity:
    return Identity(tag, where, out,
                    _terms(both) + _terms(corrected, Variant.CORRECTED)
                    + _terms(strict, Variant.STRICT), variant)


def _suite(*entries) -> tuple:
    """Groups, with a lone identity as a group of one."""
    return tuple(e if isinstance(e, Group) else Group(len(e.where), (e,))
                 for e in entries)


# ---------------------------------------------------------------------------
# Bol axioms: bil, tri

BOL = _suite(
    Group(2, (
        # x1*x2 + x2*x1 = 0
        _id("star-skew", "ij", "r", "+bil(ijr) +bil(jir)"),
        # [x1,x2,x3] + [x2,x1,x3] = 0
        _id("bracket-skew", "ijk", "r", "+tri(ijkr) +tri(jikr)"),
    ), triangle=True),
    # [x1,x2,x3] + [x2,x3,x1] + [x3,x1,x2] = 0
    _id("bracket-cyclic", "ijk", "r", "+tri(ijkr) +tri(jkir) +tri(kijr)"),
    # [x1,x2,y1*y2] = [x1,x2,y1]*y2 + y1*[x1,x2,y2] + [y1,y2,x1*x2]
    #                 - (y1*y2)*(x1*x2)
    _id("mixed-product", "ijkl", "r",
        "+bil(klq) tri(ijqr) -tri(ijkq) bil(qlr) -tri(ijlq) bil(kqr)"
        " -bil(ijq) tri(klqr) +bil(klq) bil(ijs) bil(qsr)"),
    # [x1,x2,[y1,y2,y3]] = [[x1,x2,y1],y2,y3] + [y1,[x1,x2,y2],y3]
    #                      + [y1,y2,[x1,x2,y3]]
    _id("bracket-derivation", "ijklm", "r",
        "+tri(klmq) tri(ijqr) -tri(ijkq) tri(qlmr) -tri(ijlq) tri(kqmr)"
        " -tri(ijmq) tri(klqr)"),
)

# ---------------------------------------------------------------------------
# morphisms of one structure to itself: bil, tri, f

MOR = _suite(
    # f(x1*x2) = f(x1)*f(x2)
    _id("mor-star", "ij", "l", "+f(lq) bil(ijq) -f(ai) f(bj) bil(abl)"),
    # f([x1,x2,x3]) = [f(x1),f(x2),f(x3)]
    _id("mor-bracket", "ijk", "l", "+f(lq) tri(ijkq) -f(ai) f(bj) f(ck) tri(abcl)"),
)

# morphisms of the structure (bil, tri) into the structure (bil2, tri2)
HOM = _suite(
    # f(x1*x2) = f(x1)*f(x2)
    _id("hom-star", "ij", "l", "+f(lq) bil(ijq) -f(ai) f(bj) bil2(abl)"),
    # f([x1,x2,x3]) = [f(x1),f(x2),f(x3)]
    _id("hom-bracket", "ijk", "l", "+f(lq) tri(ijkq) -f(ai) f(bj) f(ck) tri2(abcl)"),
)

# ---------------------------------------------------------------------------
# module identities: bil, tri, mu, theta, dd; residuals are m x m matrices

REP = _suite(
    # D(x1,x2) + theta(x1,x2) - theta(x2,x1) = 0
    _id("rep-d-theta", "ij", "st", "+dd(ijst) +theta(ijst) -theta(jist)"),
    # [D(x1,x2), mu(y)] = mu([x1,x2,y]) - theta(y, x1*x2) + mu(x1*x2) mu(y)
    _id("rep-d-mu", "ijk", "st",
        "+dd(ijsu) mu(kut) -mu(ksu) dd(ijut) -tri(ijkq) mu(qst)"
        " +bil(ijq) theta(kqst) -bil(ijq) mu(qsu) mu(kut)"),
    # theta(x, y1*y2) = mu(y1) theta(x,y2) - mu(y2) theta(x,y1)
    #                   - (D(y1,y2) - mu(y1*y2)) mu(x)
    _id("rep-theta-star", "ijk", "st",
        "+bil(jkq) theta(iqst) -mu(jsu) theta(ikut) +mu(ksu) theta(ijut)"
        " +dd(jksu) mu(iut) -bil(jkq) mu(qsu) mu(iut)"),
    Group(4, (
        # [D(x1,x2), D(y1,y2)] = D([x1,x2,y1], y2) + D(y1, [x1,x2,y2])
        _id("rep-d-d", "ijkl", "st",
            "+dd(ijsu) dd(klut) -dd(klsu) dd(ijut) -tri(ijkq) dd(qlst)"
            " -tri(ijlq) dd(kqst)"),
        # [D(x1,x2), theta(y1,y2)] = theta([x1,x2,y1], y2) + theta(y1, [x1,x2,y2])
        _id("rep-d-theta-comm", "ijkl", "st",
            "+dd(ijsu) theta(klut) -theta(klsu) dd(ijut) -tri(ijkq) theta(qlst)"
            " -tri(ijlq) theta(kqst)"),
        # theta(x, [y1,y2,y3]) = theta(y2,y3) theta(x,y1) - theta(y1,y3) theta(x,y2)
        #                        + D(y1,y2) theta(x,y3)
        _id("rep-theta-bracket", "ijkl", "st",
            "+tri(jklq) theta(iqst) -theta(klsu) theta(ijut)"
            " +theta(jlsu) theta(ikut) -dd(jksu) theta(ilut)"),
    )),
)

# ---------------------------------------------------------------------------
# abelian (2,3)-cocycles: bil, tri, mu, theta, dd, nu, om; residuals in V.
# One printed term of cocycle-star pairs nu with itself, which is not
# type-correct; the corrected variant reads it as mu(x1*x2) nu(y1,y2), the
# strict variant drops it.

COCYCLE = _suite(
    Group(2, (
        # nu(x1,x2) + nu(x2,x1) = 0
        _id("nu-skew", "ij", "s", "+nu(ijs) +nu(jis)"),
        # omega(x1,x2,x3) + omega(x2,x1,x3) = 0
        _id("omega-skew", "ijk", "s", "+om(ijks) +om(jiks)"),
    ), triangle=True),
    # omega(x1,x2,x3) + omega(x2,x3,x1) + omega(x3,x1,x2) = 0
    _id("cocycle-cyclic", "ijk", "s", "+om(ijks) +om(jkis) +om(kijs)"),
    # omega(x1,x2,y1*y2) + D(x1,x2) nu(y1,y2) - omega(y1,y2,x1*x2)
    #   - D(y1,y2) nu(x1,x2) - nu([x1,x2,y1],y2) - nu(y1,[x1,x2,y2])
    #   - mu(y1) omega(x1,x2,y2) + mu(y2) omega(x1,x2,y1) + mu(y1*y2) nu(x1,x2)
    #   + nu(y1*y2, x1*x2) [- mu(x1*x2) nu(y1,y2), corrected] = 0
    _id("cocycle-star", "ijkl", "s",
        "+bil(klq) om(ijqs) +dd(ijst) nu(klt) -bil(ijq) om(klqs) -dd(klst) nu(ijt)"
        " -tri(ijkq) nu(qls) -tri(ijlq) nu(kqs) -mu(kst) om(ijlt) +mu(lst) om(ijkt)"
        " +bil(klq) mu(qst) nu(ijt) +bil(klq) bil(ijr) nu(qrs)",
        corrected="-bil(ijq) mu(qst) nu(klt)"),
    # omega(x1,x2,[y1,y2,y3]) + D(x1,x2) omega(y1,y2,y3)
    #   - omega([x1,x2,y1],y2,y3) - omega(y1,[x1,x2,y2],y3)
    #   - omega(y1,y2,[x1,x2,y3]) - D(y1,y2) omega(x1,x2,y3)
    #   - theta(y2,y3) omega(x1,x2,y1) + theta(y1,y3) omega(x1,x2,y2) = 0
    _id("cocycle-bracket", "ijklh", "s",
        "+tri(klhq) om(ijqs) +dd(ijst) om(klht) -tri(ijkq) om(qlhs)"
        " -tri(ijlq) om(kqhs) -tri(ijhq) om(klqs) -dd(klst) om(ijht)"
        " -theta(lhst) om(ijkt) +theta(khst) om(ijlt)"),
)

# ---------------------------------------------------------------------------
# non-abelian cocycles: the base's bil, tri; nu, om, mu, theta, dd; the
# fiber's vbil, vtri.  Base axes are i j k l h (summed q r), fiber axes
# a b c (summed t u), residuals s (a fiber vector) or s t (a matrix).

_C = Variant.CORRECTED

NAB = _suite(
    Group(2, (
        _id("nu-skew", "ij", "s", "+nu(ijs) +nu(jis)"),
        _id("omega-skew", "ijk", "s", "+om(ijks) +om(jiks)"),
        _id("d-skew", "ij", "st", "+dd(ijst) +dd(jist)"),
    ), triangle=True),
    _id("omega-cyclic", "ijk", "s", "+om(ijks) +om(jkis) +om(kijs)"),
    _id("d-theta", "ij", "st", "+dd(ijst) -theta(jist) +theta(ijst)"),
    # coupling of nu and omega with the binary product
    _id("nu-omega-star", "ijkl", "s",
        "+dd(ijst) nu(klt) +bil(klq) om(ijqs) -tri(ijkq) nu(qls) +mu(lst) om(ijkt)"
        " -mu(kst) om(ijlt) -tri(ijlq) nu(kqs) -bil(ijq) om(klqs) -dd(klst) nu(ijt)"
        " +bil(klq) bil(ijr) nu(qrs) -bil(ijq) mu(qst) nu(klt)",
        corrected="+bil(klq) mu(qst) nu(ijt) +nu(klt) nu(iju) vbil(tus)",
        strict="+bil(ijq) mu(qst) nu(ijt)"),
    # D against mu and the product
    _id("mu-d-star", "ijka", "s",
        "+dd(ijst) mu(kta) +bil(ijq) theta(kqsa) -tri(ijkq) mu(qsa)"
        " -om(ijkt) vbil(tas) -mu(kst) dd(ijta) -bil(ijq) mu(qst) mu(kta)",
        corrected="+mu(kta) nu(iju) vbil(tus)"),
    # D and mu(x*y) against the fiber product
    Group(4, (
        _id("d-star-leibniz", "ijab", "s",
            "+dd(ijst) vbil(abt) -dd(ijta) vbil(tbs) -dd(ijtb) vbil(ats)"
            " -nu(ijt) vtri(abts)",
            corrected="-bil(ijq) mu(qst) vbil(abt) +vbil(abt) nu(iju) vbil(tus)",
            strict="+bil(ijq) mu(qst) vbil(abt)"),
        _id("bracket-nu", "ijab", "s",
            "+nu(ijt) vtri(abts) +bil(ijq) mu(qst) vbil(abt)",
            corrected="-dd(ijst) vbil(abt) +nu(ijt) vbil(abu) vbil(tus)",
            strict="+dd(ijst) vbil(abt)"),
    )),
    # theta against the bracket and the product
    _id("theta-bracket", "ijkla", "s",
        "+tri(jklq) theta(iqsa) -theta(klst) theta(ijta) +theta(jlst) theta(ikta)"
        " -dd(jkst) theta(ilta)"),
    _id("theta-star", "ijka", "s",
        "+bil(jkq) theta(iqsa) -mu(jst) theta(ikta) +mu(kst) theta(ijta)"
        " +dd(jkst) mu(ita) -bil(jkq) mu(qst) mu(ita)",
        corrected="-nu(jkt) mu(iua) vbil(tus)"),
    # commutators of D with theta and D
    Group(5, (
        _id("d-theta-comm", "ijkla", "s",
            "+dd(ijst) theta(klta) -theta(klst) dd(ijta) -tri(ijkq) theta(qlsa)"
            " -tri(ijlq) theta(kqsa)"),
        _id("d-d-comm", "ijkla", "s",
            "+dd(ijst) dd(klta) -dd(klst) dd(ijta) -tri(ijkq) dd(qlsa)"
            " -tri(ijlq) dd(kqsa)"),
    )),
    # D as a derivation of the fiber bracket
    _id("d-bracket-leibniz", "ijabc", "s",
        "+dd(ijst) vtri(abct) -dd(ijta) vtri(tbcs) -dd(ijtb) vtri(atcs)"
        " -dd(ijtc) vtri(abts)"),
    # omega against the bracket
    _id("omega-bracket", "ijklh", "s",
        "+dd(ijst) om(klht) +tri(klhq) om(ijqs) -tri(ijkq) om(qlhs)"
        " -theta(lhst) om(ijkt) -tri(ijlq) om(kqhs) +theta(khst) om(ijlt)"
        " -tri(ijhq) om(klqs) -dd(klst) om(ijht)"),
    # fiber couplings that the glued structure forces but the printed list
    # omits; all vanish when the fiber is abelian
    _id("theta-mu-star", "ijab", "s",
        "+theta(ijta) vbil(tbs) +mu(jtb) mu(iua) vbil(tus)", variant=_C),
    Group(4, (
        _id("mu-bracket", "iabc", "s",
            "+mu(ita) vtri(bcts) -vbil(bcu) mu(ita) vbil(uts)", variant=_C),
        _id("mu-bracket-leibniz", "iabc", "s",
            "+mu(itc) vtri(abts) -mu(ist) vtri(abct) +mu(itc) vbil(abu) vbil(tus)",
            variant=_C),
    )),
    Group(5, (
        _id("omega-central-1", "ijkab", "s", "+om(ijkt) vtri(tabs)", variant=_C),
        _id("omega-central-2", "ijkab", "s", "+om(ijkt) vtri(atbs)", variant=_C),
        _id("omega-central-3", "ijkab", "s", "+om(ijkt) vtri(abts)", variant=_C),
    )),
    Group(5, (
        _id("theta-central-1", "ijabc", "s", "+theta(ijta) vtri(tbcs)", variant=_C),
        _id("theta-central-2", "ijabc", "s", "+theta(ijta) vtri(btcs)", variant=_C),
        _id("theta-central-3", "ijabc", "s", "+theta(ijta) vtri(bcts)", variant=_C),
    )),
    Group(5, (
        _id("d-bracket-comm", "ijabc", "s",
            "+dd(ijtc) vtri(abts) -dd(ijst) vtri(abct)", variant=_C),
        _id("theta-bracket-comm", "ijabc", "s",
            "+theta(ijtc) vtri(abts) -theta(ijst) vtri(abct)", variant=_C),
    )),
)


# ---------------------------------------------------------------------------
# decisions about a map phi: B -> V.  The base's bil, tri and the fiber's
# vbil, vtri throughout; base axes i j k (summed q r h), fiber axes a
# (summed b c d t), residuals s.  Over an abelian fiber every term of degree
# two or more in phi has a vbil or vtri factor, so each suite is affine in
# phi there (`affine`).

# cocycle 1 (nu1, ..., dd1) against the cocycle (nu, ..., dd) via phi.  Signs
# follow the printed convention (eqv-nu has +phi(x*y), opposite to the
# abelian coboundary convention).
EQV = _suite(
    # omega1(x,y,z) - omega(x,y,z) - theta(x,z)phi(y) + D(x,y)phi(z)
    #   + theta(y,z)phi(x) + [phi(x),phi(y),phi(z)] - phi([x,y,z]) = 0
    _id("eqv-omega", "ijk", "s",
        "+om1(ijks) -om(ijks) -theta(ikst) phi(tj) +dd(ijst) phi(tk)"
        " +theta(jkst) phi(ti) +phi(ai) phi(bj) phi(ck) vtri(abcs) -phi(sq) tri(ijkq)"),
    # nu1(x,y) - nu(x,y) - phi(x)*phi(y) - phi(x*y) + mu(x)phi(y)
    #   - mu(y)phi(x) = 0
    _id("eqv-nu", "ij", "s",
        "+nu1(ijs) -nu(ijs) -phi(ai) phi(bj) vbil(abs) -phi(sq) bil(ijq)"
        " +mu(ist) phi(tj) -mu(jst) phi(ti)"),
    # mu1(x)a - mu(x)a - a*phi(x) = 0
    _id("eqv-mu", "ia", "s", "+mu1(isa) -mu(isa) -phi(bi) vbil(abs)"),
    Group(3, (
        # theta1(x,y)a - theta(x,y)a - [a,phi(x),phi(y)] = 0
        _id("eqv-theta", "ija", "s",
            "+theta1(ijsa) -theta(ijsa) -phi(bi) phi(cj) vtri(abcs)"),
        # D1(x,y)a - D(x,y)a - [phi(x),phi(y),a] = 0
        _id("eqv-d", "ija", "s", "+dd1(ijsa) -dd(ijsa) -phi(bi) phi(cj) vtri(bcas)"),
    )),
)

# (alpha, beta) lifts through phi to the automorphism
# a + s(x) |-> beta(a) - phi(x) + s(alpha(x)) of the extension of the
# cocycle (nu, om, mu, theta, dd)
IND = _suite(
    # beta omega(x,y,z) - omega(ax,ay,az) - theta(ax,az)phi(y)
    #   + theta(ay,az)phi(x) + D(ax,ay)phi(z) - phi([x,y,z])
    #   + [phi(x),phi(y),phi(z)] = 0
    _id("ind-omega", "ijk", "s",
        "+beta(st) om(ijkt) -alpha(qi) alpha(rj) alpha(hk) om(qrhs)"
        " -alpha(qi) alpha(rk) theta(qrst) phi(tj) +alpha(qj) alpha(rk) theta(qrst) phi(ti)"
        " +alpha(qi) alpha(rj) dd(qrst) phi(tk) -phi(sq) tri(ijkq)"
        " +phi(ai) phi(bj) phi(ck) vtri(abcs)"),
    # beta nu(x,y) - nu(ax,ay) - phi(x)*phi(y) - phi(x*y) + mu(ax)phi(y)
    #   - mu(ay)phi(x) = 0
    _id("ind-nu", "ij", "s",
        "+beta(st) nu(ijt) -alpha(qi) alpha(rj) nu(qrs) -phi(ai) phi(bj) vbil(abs)"
        " -phi(sq) bil(ijq) +alpha(qi) mu(qst) phi(tj) -alpha(qj) mu(qst) phi(ti)"),
    Group(3, (
        # beta theta(x,y)a - theta(ax,ay)beta(a) - [beta(a),phi(x),phi(y)] = 0
        _id("ind-theta", "ija", "s",
            "+beta(st) theta(ijta) -alpha(qi) alpha(rj) theta(qrst) beta(ta)"
            " -beta(ba) phi(ci) phi(dj) vtri(bcds)"),
        # beta D(x,y)a - D(ax,ay)beta(a) - [phi(x),phi(y),beta(a)] = 0
        _id("ind-d", "ija", "s",
            "+beta(st) dd(ijta) -alpha(qi) alpha(rj) dd(qrst) beta(ta)"
            " -phi(bi) phi(cj) beta(da) vtri(bcds)"),
    )),
    # beta mu(x)a - mu(ax)beta(a) - beta(a)*phi(x) = 0
    _id("ind-mu", "ia", "s",
        "+beta(st) mu(ita) -alpha(qi) mu(qst) beta(ta) -beta(ba) phi(ci) vbil(bcs)"),
)

# degree-one cocycles of the cocycle (mu, theta, dd): phi takes values that
# the fiber's product and bracket annihilate, and the shear
# a + s(x) |-> a - phi(x) + s(x) is an automorphism
Z1 = _suite(
    # a*phi(x) = 0
    _id("z1-annihilate-star", "ia", "s", "+phi(bi) vbil(abs)"),
    Group(3, (
        # [a,phi(x),b] = 0 and [b,a,phi(x)] = 0
        _id("z1-annihilate-middle", "iab", "s", "+phi(ci) vtri(acbs)"),
        _id("z1-annihilate-last", "iab", "s", "+phi(ci) vtri(bacs)"),
    )),
    # mu(x)phi(y) - mu(y)phi(x) - phi(x*y) - phi(x)*phi(y) = 0
    _id("z1-product", "ij", "s",
        "+mu(ist) phi(tj) -mu(jst) phi(ti) -phi(sq) bil(ijq) -phi(ai) phi(bj) vbil(abs)"),
    # theta(x,z)phi(y) - theta(y,z)phi(x) - D(x,y)phi(z)
    #   - [phi(x),phi(y),phi(z)] + phi([x,y,z]) = 0
    _id("z1-bracket", "ijk", "s",
        "+theta(ikst) phi(tj) -theta(jkst) phi(ti) -dd(ijst) phi(tk)"
        " -phi(ai) phi(bj) phi(ck) vtri(abcs) +phi(sq) tri(ijkq)"),
)


# ---------------------------------------------------------------------------
# readers' shared pieces

def select(suite: tuple, variant: Variant) -> tuple:
    """The identities of `suite` checked in `variant`, each with the terms
    summed in it: a suite without variant marks, in table order."""
    return tuple(Group(g.shared, tuple(
        Identity(i.tag, i.where, i.out,
                 tuple(t for t in i.terms if t.variant in (None, variant)))
        for i in g.identities if i.variant in (None, variant)), g.triangle)
        for g in suite)


@lru_cache(maxsize=None)
def live(identity: Identity, zero: frozenset) -> Identity:
    """The identity without its dead terms, those with a factor named in
    `zero` (the all-zero tensors): each contributes exactly zero.  Its axes
    are sized from the full identity (`axis_sizes`), so a letter that only
    dead terms carry still sizes the residual; it may have no terms."""
    return replace(identity, terms=tuple(t for t in identity.terms
                                         if zero.isdisjoint(name for name, _ in t.factors)))


def contract(term: Term, out: str, arrays: dict, sizes: dict, batched=frozenset(),
             batch: str = "") -> np.ndarray:
    """One term's contraction onto the axes `out`, after a leading axis
    `batch` where a factor named in `batched` has it; an axis no factor
    carries (the strict nu-omega-star term has two) meets a factor of ones."""
    ones = [ch for ch in out if all(ch not in idx for _, idx in term.factors)]
    lead = batch if any(name in batched for name, _ in term.factors) else ""
    spec = ",".join([(batch if name in batched else "") + idx for name, idx in term.factors]
                    + ones)
    return np.einsum(spec + "->" + lead + out, *(arrays[name] for name, _ in term.factors),
                     *(np.ones(sizes[ch], int) for ch in ones))


def axis_sizes(identity: Identity, shapes: dict) -> dict:
    """Axis letter -> length, read off the shapes of the named tensors (with
    no batch axis)."""
    sizes = {}
    for term in identity.terms:
        for name, idx in term.factors:
            sizes.update(zip(idx, shapes[name]))
    return sizes


def residues(nested, dtype=np.int64) -> np.ndarray:
    """Nested tuples of GF(p) scalars as an array of their residues."""
    return np.frompyfunc(lambda s: s.value, 1, 1)(np.array(nested, dtype=object)).astype(dtype)


def scalars(field, array) -> tuple:
    """The inverse of `residues`, with one field scalar per distinct value."""
    made = {v: field.scalar(v) for v in set(array.ravel().tolist())}.__getitem__
    nest = lambda x: tuple(map(nest, x) if x and isinstance(x[0], list) else map(made, x))
    return nest(array.tolist())


def _integers(field, nested: dict):
    """(name -> object array of Python ints, denominator): over GF(p) the
    residues and 1; over Q numerators over one common denominator."""
    if field.is_prime_field:
        return {name: residues(value, object) for name, value in nested.items()}, 1
    arrays = {name: np.array(value, dtype=object) for name, value in nested.items()}
    den = lcm(1, *(s.denominator for a in arrays.values() for s in a.flat if s))
    numerator = np.frompyfunc(lambda s: s.numerator * (den // s.denominator) if s else 0,
                              1, 1)
    return {name: numerator(a) for name, a in arrays.items()}, den


def _sum(terms, axes: str, ints: dict, sizes: dict, den: int, p, degree=None,
         **batch):
    """(the terms' signed sum onto `axes` in Python ints, its degree K), as
    `report` sums; `degree` counts the factors that carry den (default all)."""
    degree = degree or (lambda t: len(t.factors))
    top = max(map(degree, terms), default=0)
    total = 0
    for t in terms:
        total = total + contract(t, axes, ints, sizes, **batch) * (
            t.sign * den ** (top - degree(t)))
    return (total % p if p is not None else total), top


def _zero_names(ints: dict) -> frozenset:
    return frozenset(name for name, a in ints.items() if not a.any())


def _scalars(field, values, den: int) -> tuple:
    """Summed Python ints as field scalars: residues, or over Q x / den."""
    if field.is_prime_field:
        return tuple(field.scalar(int(x)) for x in values)
    zero = field.zero
    return tuple(Fraction(int(x), den) if x else zero for x in values)


# ---------------------------------------------------------------------------
# the report reader

def report(suite: tuple, field, variant: Variant = Variant.CORRECTED,
           **tensors) -> ValidationReport:
    """The violations of one structure, given as nested tuples of field
    scalars per tensor name, in table order.

    Sums run on Python ints: GF(p) residues (exact for every p) or, over Q,
    numerators over a common denominator d, each term of degree k scaled by
    d^(K-k) for the identity's largest degree K."""
    ints, den = _integers(field, tensors)
    shapes = {name: a.shape for name, a in ints.items()}
    zero = _zero_names(ints)
    p = field.p if field.is_prime_field else None
    rep = ValidationReport()
    for group in select(suite, variant):
        found = []
        for rank, identity in enumerate(group.identities):
            terms = live(identity, zero).terms
            if not terms:
                continue
            total, top = _sum(terms, identity.axes, ints, axis_sizes(identity, shapes), den, p)
            w = len(identity.where)
            hit = total.astype(bool).reshape(total.shape[:w] + (-1,)).any(axis=-1)
            for where in zip(*np.nonzero(hit)):
                where = tuple(int(i) for i in where)
                if group.triangle and where[1] < where[0]:
                    continue
                found.append((where[:group.shared], rank, where[group.shared:],
                              identity.tag,
                              _scalars(field, total[where].reshape(-1), den ** top)))
        found.sort(key=lambda f: f[:3])
        for shared, _, rest, tag, residual in found:
            rep.add(tag, shared + rest, residual)
    return rep


# ---------------------------------------------------------------------------
# the affine reader

def _phi_degree(term: Term) -> int:
    return sum(name == "phi" for name, _ in term.factors)


def affine(suite: tuple, field, n: int, m: int, **tensors) -> dict:
    """tag -> (A, b) per identity of an EQV, IND or Z1 suite, in table order:
    its residuals, flattened row-major over `where` then `out`, are A x + b
    for x[q*m + t] = phi[t,q] (`cohomology._phi_from_params` order).  The
    tensors are given as in `report`, all but phi.  A contracts the terms
    linear in phi with the unit maps, b sums the terms free of phi.  No live
    term (`live`) may have degree two or more in phi (each such term needs
    an all-zero vbil or vtri, as over an abelian fiber), else ValueError."""
    ints, den = _integers(field, tensors)
    zero = _zero_names(ints)
    shapes = {name: a.shape for name, a in ints.items()}
    shapes["phi"] = (m, n)
    # unit[x, t, q] = 1 where x = q*m + t
    ints["phi"] = np.eye(n * m, dtype=object).reshape(n * m, n, m).transpose(0, 2, 1)
    p = field.p if field.is_prime_field else None
    system = {}
    for identity in (i for group in suite for i in group.identities):
        terms = live(identity, zero).terms
        if any(_phi_degree(t) > 1 for t in terms):
            raise ValueError(f"{identity.tag} is not affine in phi")
        sizes = axis_sizes(identity, shapes)
        shape = tuple(sizes[ch] for ch in identity.axes)
        linear, top = _sum([t for t in terms if _phi_degree(t) == 1],
                           identity.axes, ints, sizes, den, p,
                           degree=lambda t: len(t.factors) - 1,
                           batched={"phi"}, batch="X")
        linear = np.broadcast_to(linear, (n * m,) + shape).reshape(n * m, -1)
        a = tuple(zip(*(_scalars(field, col, den ** top) for col in linear)))
        free, top = _sum([t for t in terms if not _phi_degree(t)],
                         identity.axes, ints, sizes, den, p)
        system[identity.tag] = (a, _scalars(field, np.broadcast_to(free, shape).reshape(-1),
                                            den ** top))
    return system
