"""Renderer for the service-shaped HTML fixtures, plus the bundled corpus
tables. Run as a script to (re)build src/scholar_sounder/fixtures:

    python3 tests/htmlgen.py src/scholar_sounder/fixtures
"""

from __future__ import annotations

import sys
from html import escape
from pathlib import Path

# (author_id, display name, display interest labels, cited_by)
AUTHORS = {
    "A_TUDOR": ("Tiberiu Tudor", ["Physical Optics", "Polarization", "Coherence", "Lasers", "Quantum Optics"], 2148),
    "A_CHAVEZ": ("Sabino Chavez-Cerda", ["Optics", "Mathematical Physics", "Physical Optics", "Diffractive Optics", "Optical Solitons"], 5403),
    "A_LLAVE": ("David Sanchez-de-la-Llave", ["Optics", "Physical Optics", "Fourier Optics & Signal Processing", "Holography"], 871),
    "A_BANDRES": ("Miguel A. Bandres", ["Physics", "Optics", "Photonics"], 6210),
    "A_COURTIAL": ("Johannes Courtial", ["Physics", "Optics", "Ray Optics", "Holography"], 7354),
    "A_DENNIS": ("Mark R Dennis", ["Mathematical Physics", "Optics", "Singular Optics", "Topology"], 9820),
    "A_NORI": ("Franco Nori", ["Condensed Matter Physics", "Quantum Optics", "Quantum Information", "Physics", "Superconductivity"], 48210),
    "A_JOHANSSON": ("Gran Johansson", ["Quantum Physics", "Quantum Computing", "Microwave Quantum Optics", "The Dynamical Casimir Effect", "Mesoscopic Superconductivity"], 4102),
    "A_KOFMAN": ("Abraham G. Kofman", ["Quantum Physics", "Quantum Information", "Quantum Optics", "Laser Physics", "Solid State Qubits"], 3315),
    "A_SKAB": ("Skab Ihor", ["Physical Optics", "Singular Optics", "Crystal Optics", "Piezo and Electrooptics", "Acoustooptics"], 612),
    "A_CARCOL": ("Eduard Carcol''", ["Physical Optics", "Seismology", "Computers"], 154),
    "A_LAMBERT": ("Neill Lambert", ["Physics", "Quantum Optics", "Quantum Computing", "Nano Mechanics", "Quantum Mechanics"], 5870),
    "A_DIJKSTRA": ("Arend G. Dijkstra", ["Theoretical Chemical Physics", "Nonlinear Optics", "Open Quantum Systems"], 1493),
    "A_RODLARA": ("B. M. Rodriguez-Lara", ["Quantum Optics", "Optical Physics"], 2676),
    "A_CHILING": ("Suren A. Chilingaryan", ["Quantum Optics and Quantum Information", "Quantum Physics", "Quantum Mechanics"], 389),
    "A_KIM": ("Myun-Sik Kim", ["Metrology", "Interferometry", "Physical Optics", "Phase Anomaly", "Microlens"], 927),
    "A_ZURITA": ("G. Rodriguez Zurita", ["Physical Optics", "Interferometry", "Fourier Optics"], 745),
    "A_VLOKH": ("Vlokh Rostyslav", ["Physical Optics"], 1980),
    "A_BARTKIE": ("Karol Bartkiewicz", ["Quantum Physics", "Quantum Optics", "Quantum Information"], 1822),
    "A_PATHAK": ("Anirban Pathak", ["Physics", "Quantum Information", "Quantum Optics"], 4530),
    "A_MANDAL": ("Swapan Mandal", ["Quantum Optics", "Laser Spectroscopy", "Quantum Information Theory", "Mathematical Physics"], 1204),
    "A_BESIERIS": ("Ioannis Besieris", ["Stochastic Linear and Nonlinear Wave Propagation", "Phase Space Techniques", "Wave Localization"], 3911),
}

# tag -> list of pages; each page is (author ids, next-page token or None)
LABEL_PAGES = {
    "physical_optics": [
        (["A_TUDOR", "A_CHAVEZ", "A_LLAVE", "A_SKAB", "A_CARCOL", "A_KIM", "A_ZURITA", "A_VLOKH"], None),
    ],
    "optics": [
        (["A_BANDRES", "A_COURTIAL", "A_DENNIS"], None),
    ],
    "singular_optics": [
        (["A_SKAB", "A_DENNIS"], None),
    ],
    "quantum_optics": [
        (["A_TUDOR", "A_NORI", "A_KOFMAN", "A_LAMBERT", "A_RODLARA"], "qo-page-1"),
        (["A_BARTKIE", "A_PATHAK", "A_MANDAL"], None),
    ],
    "nonlinear_optics": [(["A_DIJKSTRA"], None)],
    "microwave_quantum_optics": [(["A_JOHANSSON"], None)],
    "quantum_optics_and_quantum_information": [(["A_CHILING"], None)],
    "wave_localization": [(["A_BESIERIS"], None)],
}

# author_id -> (h_index, co-author entries); entry id None => no profile link
PROFILES = {
    "A_TUDOR": (21, [("A_CHAVEZ", None), ("A_LLAVE", None), ("A_KIM", None)]),
    "A_CHAVEZ": (34, [("A_TUDOR", None), ("A_LLAVE", None), ("A_BANDRES", None)]),
    "A_LLAVE": (15, [("A_CHAVEZ", None), ("A_ZURITA", None)]),
    # A_SKAB lists himself first: exercises self-reference stripping.
    "A_SKAB": (13, [("A_SKAB", None), ("A_VLOKH", None)]),
    "A_VLOKH": (22, [("A_SKAB", None), ("A_CARCOL", None), (None, "Oleh Krupych")]),
    "A_KIM": (16, [("A_ZURITA", None)]),
}


def render_label_page(tag: str, author_ids: list[str], next_token: str | None = None,
                      authors=None) -> str:
    """HTML for one label-search results page."""
    authors = authors or AUTHORS
    blocks = []
    for aid in author_ids:
        name, labels, cited_by = authors[aid]
        links = "".join(
            f'<a class="gs_ai_one_int" href="/citations?view_op=search_authors&amp;'
            f'mauthors=label:{escape(lbl.lower().replace(" ", "_"))}">{escape(lbl)}</a>\n      '
            for lbl in labels
        )
        blocks.append(
            f"""  <div class="gsc_1usr">
    <h3 class="gs_ai_name"><a href="/citations?user={escape(aid)}&amp;hl=en">{escape(name)}</a></h3>
    <div class="gs_ai_aff">Research institution</div>
    <div class="gs_ai_cby">Cited by {cited_by}</div>
    <div class="gs_ai_int">
      {links.rstrip()}
    </div>
  </div>"""
        )
    pager = (
        f'<button class="gs_btnPR" data-after="{escape(next_token)}" type="button"></button>'
        if next_token
        else '<button class="gs_btnPR" disabled="disabled" type="button"></button>'
    )
    body = "\n".join(blocks)
    return f"""<!DOCTYPE html>
<html>
<head><title>label:{escape(tag)} - Citations</title></head>
<body>
<div id="gsc_sa_ccl">
{body}
</div>
{pager}
</body>
</html>
"""


def render_profile_page(author_id: str, name: str, labels: list[str], cited_by: int | None,
                        h_index: int | None, coauthors: list[tuple[str | None, str]]) -> str:
    """HTML for one author profile page. ``coauthors`` entries are
    (author_id or None, display name); None omits the profile link."""
    interest_links = "\n    ".join(
        f'<a class="gsc_prf_inta" href="/citations?view_op=search_authors&amp;'
        f'mauthors=label:{escape(lbl.lower().replace(" ", "_"))}">{escape(lbl)}</a>'
        for lbl in labels
    )
    metric_rows = []
    if cited_by is not None:
        metric_rows.append(
            f'  <tr><td class="gsc_rsb_sc1">Citations</td><td class="gsc_rsb_std">{cited_by}</td></tr>'
        )
    if h_index is not None:
        metric_rows.append(
            f'  <tr><td class="gsc_rsb_sc1">h-index</td><td class="gsc_rsb_std">{h_index}</td></tr>'
        )
    metrics = "\n".join(metric_rows)
    items = []
    for cid, cname in coauthors:
        if cid is None:
            items.append(f'  <li class="gsc_rsb_aa"><span class="gsc_rsb_name">{escape(cname)}</span></li>')
        else:
            items.append(
                f'  <li class="gsc_rsb_aa"><a href="/citations?user={escape(cid)}&amp;hl=en">{escape(cname)}</a></li>'
            )
    sidebar = (
        '<ul class="gsc_rsb_a">\n' + "\n".join(items) + "\n</ul>" if items else ""
    )
    return f"""<!DOCTYPE html>
<html>
<head><title>{escape(name)} - Citations</title></head>
<body>
<div id="gsc_prf">
  <div id="gsc_prf_in">{escape(name)}</div>
  <div id="gsc_prf_int">
    {interest_links}
  </div>
</div>
<table id="gsc_rsb_st">
{metrics}
</table>
{sidebar}
</body>
</html>
"""


def pad_page(html: str, key: str, rows: int = 100) -> str:
    """``html``, a rendered page, padded toward the size of the service's
    pages just before ``</body>``: ``rows`` publication rows whose links and
    titles hold ``&amp;`` and name ``key`` (so pages padded with distinct
    keys differ), a script and a style element, and comments. The padding
    holds no marker the parser keys off, so the page parses as ``html`` does."""
    publications = "\n".join(
        f'  <tr class="gsc_a_tr"><td class="gsc_a_t"><a class="gsc_a_at" '
        f'href="/citations?view_op=view_citation&amp;hl=en&amp;user={escape(key)}&amp;'
        f'citation_for_view={escape(key)}:{i}">Paper {i} of {escape(key)}: lasers &amp; optics</a>'
        f'<div class="gs_gray">A. Author &amp; B. Author</div></td>'
        f'<td class="gsc_a_c"><a class="gsc_a_ac" href="/scholar?oi=bibs&amp;cites={i}">{i}</a></td>'
        f'<td class="gsc_a_y"><span class="gsc_a_h">{1990 + i % 30}</span></td></tr>'
        for i in range(rows)
    )
    padding = f"""<!-- publications: <a href="/citations?user={escape(key)}">{escape(key)}</a> -->
<table id="gsc_a_t">
{publications}
</table>
<!-- end of publications -->
<script>var rows = document.querySelectorAll("tr.gsc_a_tr");
if (rows.length < 2 && window.gsc) {{ document.write("<b>" + rows.length + "</b>"); }}</script>
<style>.gsc_a_at > span {{ color: #222; }} a[href*="user="]::after {{ content: "&amp;"; }}</style>
"""
    return html.replace("</body>", padding + "</body>", 1)


def build_corpus(root: Path):
    """Write the bundled fixture tree: labels/<tag>/<n>.html and
    authors/<id>.html."""
    for tag, pages in LABEL_PAGES.items():
        page_dir = root / "labels" / tag
        page_dir.mkdir(parents=True, exist_ok=True)
        for index, (ids, token) in enumerate(pages):
            html = render_label_page(tag, ids, next_token=token)
            (page_dir / f"{index}.html").write_text(html, "utf-8")
    author_dir = root / "authors"
    author_dir.mkdir(parents=True, exist_ok=True)
    for aid, (h_index, coauthor_spec) in PROFILES.items():
        name, labels, cited_by = AUTHORS[aid]
        coauthors = [
            (cid, cname if cname else AUTHORS[cid][0]) for cid, cname in coauthor_spec
        ]
        html = render_profile_page(aid, name, labels, cited_by, h_index, coauthors)
        (author_dir / f"{aid}.html").write_text(html, "utf-8")


if __name__ == "__main__":
    target = Path(sys.argv[1] if len(sys.argv) > 1 else "src/scholar_sounder/fixtures")
    build_corpus(target)
    print(f"fixture corpus written to {target}")
